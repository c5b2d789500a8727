"""Four-dimensional Lie algebras with named structure constants.

Two sources of algebras live here:

* six parametric families sharing the flag brackets [y1,y2] = y3 and
  [y1,y3] = y4, obtained by solving the Jacobi identity for the generic
  ansatz on the remaining brackets;
* twelve fixed 4-dimensional algebras (some with scalar parameters a, b)
  used for the bracket-coefficient analysis of candidate plane fields.

Structure constants are stored sparsely as c[(i, j, k)] for i < j, meaning
[y_i, y_j] = sum_k c[(i, j, k)] y_k, with values in ParamPolynomial, a
Laurent polynomial, so that denominators like powers of C144 are carried
exactly.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .exact import ParamPolynomial, coefficient_table, inverse, parse_fraction

PV = ParamPolynomial.variable


class ConstraintViolation(ValueError):
    """A parameter assignment violates a declared nondegeneracy condition."""


class FamilyId:
    """Identifier of one of the six flag-compatible families (1..6)."""

    __slots__ = ("n",)
    source = "family"
    COUNT = 6

    def __init__(self, n):
        if not isinstance(n, int) or not 1 <= n <= self.COUNT:
            raise ConstraintViolation(
                f"{self.source} index out of range: {n!r}")
        self.n = n

    def __str__(self):
        return f"{self.source}-{self.n}"

    def __eq__(self, other):
        return type(self) is type(other) and self.n == other.n

    def __hash__(self):
        return hash((self.source, self.n))


class ClassTypeId(FamilyId):
    """Identifier of one of the twelve fixed algebras (1..12)."""

    __slots__ = ()
    source = "type"
    COUNT = 12


class Vector4:
    """Element of the algebra: coefficients against the basis (y1..y4)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(ParamPolynomial.lift(x) for x in coeffs)
        if len(cs) != 4:
            raise ValueError("Vector4 needs exactly 4 coefficients")
        self.coeffs = cs

    @classmethod
    def zero(cls):
        return cls((0, 0, 0, 0))

    @classmethod
    def basis(cls, k):
        if not 1 <= k <= 4:
            raise ValueError(f"basis index out of range: {k}")
        return cls(tuple(1 if i == k - 1 else 0 for i in range(4)))

    def coeff(self, k):
        """Coefficient of y_k (1-indexed)."""
        return self.coeffs[k - 1]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        return Vector4(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Vector4(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Vector4(tuple(-a for a in self.coeffs))

    def scale(self, s):
        s = ParamPolynomial.lift(s)
        return Vector4(tuple(a * s for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Vector4):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        parts = [f"({c})*y{k}" for k, c in enumerate(self.coeffs, start=1)
                 if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


class LieAlgebra4:
    """A 4-dimensional algebra given by sparse structure constants.

    `nonzero` lists parameter names assumed nonzero; they guard
    denominators and steer randomized rank sampling away from the
    degenerate locus.  `catalogue` is the FamilyId or ClassTypeId of a
    catalogued algebra and of its specializations, None for any other.
    """

    __slots__ = ("label", "c", "nonzero", "catalogue")

    def __init__(self, label, constants, nonzero=(), catalogue=None):
        self.label = label
        self.catalogue = catalogue
        self.c = {}
        for (i, j, k), v in constants.items():
            if not (1 <= i < j <= 4 and 1 <= k <= 4):
                raise ValueError(f"bad structure-constant index {(i, j, k)}")
            v = ParamPolynomial.lift(v)
            if not v.is_zero():
                self.c[(i, j, k)] = v
        self.nonzero = tuple(nonzero)

    @property
    def params(self):
        out = set()
        for v in self.c.values():
            out.update(v.parameters())
        return tuple(sorted(out))

    def structure_constant(self, i, j, k):
        if i == j:
            return ParamPolynomial.zero()
        if i < j:
            return self.c.get((i, j, k), ParamPolynomial.zero())
        return -self.c.get((j, i, k), ParamPolynomial.zero())

    def bracket_basis(self, i, j):
        """[y_i, y_j] as a Vector4."""
        return Vector4(tuple(self.structure_constant(i, j, k)
                             for k in range(1, 5)))

    def bracket(self, u, v):
        """[u, v] = sum of c_ijk (u_i v_j - u_j v_i) y_k over the stored
        constants (i < j), each minor formed once and skipped when zero."""
        out = [ParamPolynomial.zero()] * 4
        minors = {}
        for (i, j, k), c in self.c.items():
            if (i, j) not in minors:
                minors[i, j] = (u.coeff(i) * v.coeff(j)
                                - u.coeff(j) * v.coeff(i))
            if minors[i, j]:
                out[k - 1] = out[k - 1] + c * minors[i, j]
        return Vector4(out)

    def jacobi_residuals(self):
        """All 16 labelled residual entries of the Jacobi identity.

        Key (i, j, k, m) with i < j < k holds the y_m-coefficient of
        [[y_i,y_j],y_k] + [[y_j,y_k],y_i] + [[y_k,y_i],y_j].
        """
        return dict(self._jacobi_items())

    def _jacobi_items(self):
        """(key, residual) as in jacobi_residuals, in key order, each the
        contraction sum_l (c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m)
        over the stored constants."""
        c = {}
        for (i, j, k), v in self.c.items():
            c[(i, j, k)] = v
            c[(j, i, k)] = -v
        for i, j, k in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            for m in range(1, 5):
                total = ParamPolynomial.zero()
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(1, 5):
                        a = c.get((p, q, l))
                        b = c.get((l, r, m))
                        if a is not None and b is not None:
                            total = total + a * b
                yield (i, j, k, m), total

    def is_lie(self):
        """Whether the Jacobi identity holds, memoized on the values."""
        return _is_lie(frozenset((ijk, frozenset(v.terms.items()))
                                 for ijk, v in self.c.items()))

    def specialize(self, assignment, label=None):
        """Substitute parameter values (possibly partial).  A new label
        makes the result a custom algebra, outside the catalogue."""
        assignment = dict(assignment)
        for name in self.nonzero:
            if name in assignment and Fraction(assignment[name]) == 0:
                raise ConstraintViolation(
                    f"{self.label}: parameter {name} must be nonzero")
        new_c = {key: v.substitute(assignment) for key, v in self.c.items()}
        remaining = set()
        for v in new_c.values():
            remaining.update(v.parameters())
        nz = tuple(n for n in self.nonzero if n in remaining)
        if label is None:
            return LieAlgebra4(self.label, new_c, nz, self.catalogue)
        return LieAlgebra4(label, new_c, nz)

    def change_basis(self, T):
        """Pull the brackets back through new_i = sum_j T[i][j] y_j.

        T is a 4x4 invertible matrix of rationals.  With A = sT and
        U = tT^-1 integer and the 24 constants K monomials / D, the new
        constants are (C2(A) ⊗ Uᵀ) K / (D s² t), where C2(A) holds the
        minors A_ai A_bj - A_aj A_bi over the pairs a < b and i < j.
        """
        if len(T) != 4 or any(len(row) != 4 for row in T):
            raise ValueError("change of basis needs a 4x4 matrix")
        T = [[Fraction(x) for x in row] for row in T]
        Tinv = inverse(T)
        s = lcm(*(x.denominator for row in T for x in row))
        t = lcm(*(x.denominator for row in Tinv for x in row))
        A = [[int(x * s) for x in row] for row in T]
        U = np.array([[int(x * t) for x in row] for row in Tinv], dtype=object)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        C2 = np.array([[A[a][i] * A[b][j] - A[a][j] * A[b][i]
                        for i, j in pairs] for a, b in pairs], dtype=object)
        keys = [(i + 1, j + 1, k) for i, j in pairs for k in range(1, 5)]
        K, monomials, D = coefficient_table(
            [self.structure_constant(*key) for key in keys])
        new = (np.kron(C2, U.T) @ K.astype(object)).tolist()
        den = D * s * s * t
        return LieAlgebra4(f"{self.label}~", {
            key: ParamPolynomial({m: Fraction(n, den)
                                  for m, n in zip(monomials, row)})
            for key, row in zip(keys, new)}, self.nonzero)

    def to_json(self):
        brackets = []
        for i in range(1, 5):
            for j in range(i + 1, 5):
                coeffs = [str(self.structure_constant(i, j, k))
                          for k in range(1, 5)]
                if any(s != "0" for s in coeffs):
                    brackets.append({"i": i, "j": j, "coeffs": coeffs})
        return {
            "label": self.label,
            "basis_dim": 4,
            "brackets": brackets,
            "parameters": list(self.params),
            "nonzero": list(self.nonzero),
        }


@lru_cache(maxsize=64)
def _is_lie(constants):
    """is_lie of the constants ((i, j, k), terms); holds no algebra."""
    g = LieAlgebra4("", {k: ParamPolynomial(dict(t)) for k, t in constants})
    return not any(v for _, v in g._jacobi_items())


# ---------------------------------------------------------------------------
# the generic ansatz and the six solved families

# Brackets shared by the ansatz and every family: the flag structure.
_FLAG = {(1, 2, 3): 1, (1, 3, 4): 1}


def engel_ansatz():
    """Flag brackets plus fully generic remaining brackets (16 parameters).

    The free constants are named C{i}{j}{k} for the y_k-coefficient of
    [y_i, y_j], for (i,j) in (1,4), (2,3), (2,4), (3,4).
    """
    c = dict(_FLAG)
    for (i, j) in [(1, 4), (2, 3), (2, 4), (3, 4)]:
        for k in range(1, 5):
            c[(i, j, k)] = PV(f"C{i}{j}{k}")
    return LieAlgebra4("ansatz", c)


_FAMILY_TABLE = {
    1: ({
        (1, 4): ("0", "0", "C143", "C144"),
        (2, 3): ("0", "0", "-C144*C234 + C244", "C234"),
        (2, 4): ("0", "0", "C143*C234", "C244"),
        (3, 4): ("0", "0", "0", "0"),
    }, ()),
    2: ({
        (1, 4): ("-(C144^2 + 4*C143)*(C144*C234 - 2*C244)/8",
                 "-(C144^2 + 4*C143)*C144/8",
                 "C143", "C144"),
        (2, 3): ("-(C144^2 + 4*C143)*(C144*C234 - C244)"
                 "*(C144*C234 - 2*C244)/(2*C144^2)",
                 "-(C144^2 + 4*C143)*(C144*C234 - C244)/(2*C144)",
                 "-C144*C234 + C244", "C234"),
        (2, 4): ("-(C144*C234 - 2*C244)*(C144^2 + 4*C143)*C234/8",
                 "-(C144^2 + 4*C143)*C144*C234/8",
                 "-(C144^3*C234 + 2*C143*C144*C234"
                 " - C144^2*C244 - 4*C143*C244)/(2*C144)",
                 "C244"),
        # The y1- and y4-coefficients here are forced by the Jacobi
        # identity from the rows above (see the bracket-closure note in
        # the test for solving the generic ansatz).
        (3, 4): ("(C144^2 + 4*C143)^2*(C144*C234 - C244)"
                 "*(C144*C234 - 2*C244)/(8*C144^2)",
                 "(C144^2 + 4*C143)^2*(C144*C234 - C244)/(8*C144)",
                 "(C144^2 + 4*C143)*(C144*C234 - C244)/4",
                 "-(C144^2 + 4*C143)*(C144*C234 - C244)/(2*C144)"),
    }, ("C144",)),
    3: ({
        (1, 4): ("-C142*C244/C144", "C142", "C143", "C144"),
        (2, 3): ("0", "0", "0", "C244/C144"),
        (2, 4): ("-C142*C244^2/C144^2", "C142*C244/C144",
                 "C143*C244/C144", "C244"),
        (3, 4): ("0", "0", "0", "0"),
    }, ("C144",)),
    4: ({
        (1, 4): ("0", "0", "0", "0"),
        (2, 3): ("C231", "0", "C244", "C234"),
        (2, 4): ("0", "0", "0", "C244"),
        (3, 4): ("0", "0", "0", "0"),
    }, ()),
    5: ({
        (1, 4): ("-C142*C234", "C142", "C143", "0"),
        (2, 3): ("0", "0", "0", "C234"),
        (2, 4): ("-C142*C234^2", "C142*C234", "C143*C234", "0"),
        (3, 4): ("0", "0", "0", "0"),
    }, ()),
    6: ({
        (1, 4): ("0", "0", "C143", "0"),
        (2, 3): ("C231", "C344", "0", "C234"),
        (2, 4): ("0", "0", "C143*C234 + C344", "0"),
        (3, 4): ("-C143*C231", "-C143*C344", "0", "C344"),
    }, ()),
}


def family(n):
    """One of the six flag-compatible solution families of the ansatz."""
    fid = FamilyId(n)
    table, nonzero = _FAMILY_TABLE[n]
    c = dict(_FLAG)
    for (i, j), row in table.items():
        for k, text in enumerate(row, start=1):
            v = parse_fraction(text)
            if not v.is_zero():
                c[(i, j, k)] = v
    return LieAlgebra4(str(fid), c, nonzero, fid)


# ---------------------------------------------------------------------------
# the twelve fixed algebras

_TYPE_TABLE = {
    1: ({(2, 4, 1): "1", (3, 4, 2): "1"}, (), ()),
    2: ({(1, 4, 1): "a", (2, 4, 2): "1", (3, 4, 2): "1", (3, 4, 3): "1"},
        ("a",), ()),
    3: ({(1, 4, 1): "1", (3, 4, 2): "1"}, (), ()),
    4: ({(1, 4, 1): "1", (2, 4, 1): "1", (2, 4, 2): "1",
         (3, 4, 2): "1", (3, 4, 3): "1"}, (), ()),
    5: ({(1, 4, 1): "1", (2, 4, 2): "a", (3, 4, 3): "b"},
        ("a", "b"), ("a", "b")),
    6: ({(1, 4, 1): "a", (2, 4, 2): "b", (2, 4, 3): "-1",
         (3, 4, 2): "1", (3, 4, 3): "b"}, ("a", "b"), ("a",)),
    7: ({(1, 4, 1): "2", (2, 3, 1): "1", (2, 4, 2): "1",
         (3, 4, 2): "1", (3, 4, 3): "1"}, (), ()),
    8: ({(2, 3, 1): "1", (2, 4, 2): "1", (3, 4, 3): "-1"}, (), ()),
    9: ({(1, 4, 1): "1 + b", (2, 3, 1): "1", (2, 4, 2): "1",
         (3, 4, 3): "b"}, ("b",), ()),
    10: ({(2, 3, 1): "1", (2, 4, 3): "-1", (3, 4, 2): "1"}, (), ()),
    11: ({(1, 4, 1): "2*a", (2, 3, 1): "1", (2, 4, 2): "a",
          (2, 4, 3): "-1", (3, 4, 2): "1", (3, 4, 3): "a"}, ("a",), ()),
    12: ({(1, 3, 1): "1", (1, 4, 2): "-1", (2, 3, 2): "1",
          (2, 4, 1): "1"}, (), ()),
}


def class_type(n, a=None, b=None):
    """One of the twelve fixed 4-dimensional algebras.

    Scalar parameters default to staying symbolic; numeric values are
    checked against the classification constraints (type 5: ab != 0;
    type 6: a != 0 and b >= 0; type 9: -1 < b <= 1).
    """
    tid = ClassTypeId(n)
    table, takes, nonzero = _TYPE_TABLE[n]
    given = {"a": a, "b": b}
    for name, val in given.items():
        if val is not None and name not in takes:
            raise ConstraintViolation(
                f"{tid} takes no parameter {name}")
    assignment = {}
    for name in takes:
        val = given[name]
        if val is not None:
            assignment[name] = Fraction(val)
    _check_type_constraints(n, assignment)
    c = {key: parse_fraction(text) for key, text in table.items()}
    alg = LieAlgebra4(str(tid), c, nonzero, tid)
    if assignment:
        alg = alg.specialize(assignment)
    return alg


def _check_type_constraints(n, assignment):
    a = assignment.get("a")
    b = assignment.get("b")
    if n == 5:
        if (a is not None and a == 0) or (b is not None and b == 0):
            raise ConstraintViolation("type-5 requires a*b != 0")
    elif n == 6:
        if a is not None and a == 0:
            raise ConstraintViolation("type-6 requires a != 0")
        if b is not None and b < 0:
            raise ConstraintViolation("type-6 requires b >= 0")
    elif n == 9:
        if b is not None and not (-1 < b <= 1):
            raise ConstraintViolation("type-9 requires -1 < b <= 1")


def catalog():
    """JSON-ready dump of the six families."""
    return [family(n).to_json() for n in range(1, FamilyId.COUNT + 1)]
