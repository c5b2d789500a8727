"""Exact arithmetic core: Laurent polynomials in named parameters, and
rank/kernel computation for matrices whose entries are polynomials.

Scalars are `fractions.Fraction`.  Every structure constant is a
polynomial divided by a monomial in parameters declared nonzero (a
power of C144), so one scalar type suffices: a Laurent polynomial, a
sparse map from monomials to nonzero rational coefficients.  A monomial
is a name-sorted tuple of (name, exponent) pairs with nonzero, possibly
negative, exponents, so equality is structural equality.  Only Bareiss
elimination packs monomials into integers, over Z[x].
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import random

import numpy as np

# Gaussian elimination for the randomized rank mode runs modulo this prime;
# (_PRIME-1)^2 < 2^63, so int64 products cannot overflow.
_PRIME = 2**31 - 1

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 3
# randomized sample points draw every parameter from this closed range
_COEFF_RANGE = (-10_000, 10_000)


class MissingParameter(KeyError):
    """An evaluation assignment does not cover every parameter."""


class DegenerateDenominator(ZeroDivisionError):
    """A fraction's denominator vanishes at the requested point."""


def _bad_point(parameters, denominator, assignment):
    """Raise why an evaluation at `assignment` failed: the first of the
    `parameters` it misses, else the vanishing `denominator`."""
    for v in parameters:
        if v not in assignment:
            raise MissingParameter(v)
    raise DegenerateDenominator(str(denominator))


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _mono_mul(a, b):
    """Product of two monomials."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, k in b:
        k += exps.get(v, 0)
        if k:
            exps[v] = k
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


def _deglex(names):
    """Sort key of monomials in the variables `names` (sorted): total
    degree, then the exponent vector lexicographically."""
    def key(m):
        exps = dict(m)
        return sum(exps.values()), tuple(exps.get(v, 0) for v in names)
    return key


class ParamPolynomial:
    """Laurent polynomial over Q in named parameters.

    `terms` maps monomials (name-sorted tuples of (name, exponent) pairs,
    exponents nonzero) to nonzero Fractions; the zero polynomial has no
    terms.  A negative exponent stands for a parameter in a denominator.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        return cls({(): _as_fraction(value)})

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def lift(cls, x):
        """x itself when it is a ParamPolynomial, else the constant x."""
        return x if isinstance(x, ParamPolynomial) else cls.const(x)

    @classmethod
    def _of(cls, terms):
        """The polynomial on `terms`, zero-free, taken over uncopied."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def parameters(self):
        """Sorted names of the parameters that occur."""
        return tuple(sorted({v for m in self.terms for v, _ in m}))

    def split(self):
        """(numerator, denominator): the polynomial self * den and the
        monic monomial den = common_denominator([self])."""
        den = common_denominator((self,))
        return (self if den == 1 else self * den), den

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                c += out[m]
                if not c:
                    del out[m]
                    continue
            out[m] = c
        return ParamPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ParamPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return ParamPolynomial._of({})
            return ParamPolynomial._of({m: c * other
                                        for m, c in self.terms.items()})
        if len(self.terms) == 1 and len(other.terms) == 1:
            (ma, ca), = self.terms.items()
            (mb, cb), = other.terms.items()
            return ParamPolynomial._of({_mono_mul(ma, mb): ca * cb})
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return ParamPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero monomial (a constant included)."""
        other = _operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if not other.is_monomial():
            raise ValueError(f"can only divide by a monomial, not {other}")
        (m, c), = other.terms.items()
        inverse = tuple((v, -k) for v, k in m)
        return self * ParamPolynomial({inverse: 1 / c})

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return ParamPolynomial.const(1) / self ** -n
        out, base = ParamPolynomial.const(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment):
        """Exact value at a point; raises MissingParameter when incomplete
        and DegenerateDenominator when a denominator vanishes there."""
        total = Fraction(0)
        try:
            for m, c in self.terms.items():
                for v, k in m:
                    c = c * _as_fraction(assignment[v]) ** k
                total += c
        except (KeyError, ZeroDivisionError):
            _bad_point(self.parameters(), self.split()[1], assignment)
        return total

    def evaluate_mod(self, assignment, p=_PRIME):
        """Value modulo p at an integer point (coefficients inverted mod p);
        raises DegenerateDenominator when a denominator vanishes mod p."""
        total = 0
        try:
            for m, c in self.terms.items():
                t = c.numerator % p
                if c.denominator != 1:
                    t = t * _unit_inverse(c.denominator, p) % p
                for v, k in m:
                    t = t * pow(assignment[v] % p, k, p) % p
                total = (total + t) % p
        except (KeyError, ValueError):
            _bad_point(self.parameters(), self.split()[1], assignment)
        return total

    def substitute(self, assignment):
        """Substitute numbers or ParamPolynomials for the assigned
        variables; the others stay symbolic.  A variable with a negative
        exponent must receive a nonzero monomial."""
        total = ParamPolynomial()
        for m, c in self.terms.items():
            term = ParamPolynomial(
                {tuple(vk for vk in m if vk[0] not in assignment): c})
            for v, k in m:
                if v in assignment:
                    try:
                        term = term * ParamPolynomial.lift(assignment[v]) ** k
                    except ZeroDivisionError:
                        raise DegenerateDenominator(
                            f"{v} = 0 in a denominator") from None
            total = total + term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """num, num/den, or (num)/den with den the monomial of split():
        parenthesized unless num is a single positive term."""
        num, den = self.split()
        if num is not self:
            if num.is_monomial() and \
                    not any(c < 0 for c in num.terms.values()):
                return f"{num}/{den}"
            return f"({num})/{den}"
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_deglex(self.parameters()),
                        reverse=True):
            c = self.terms[m]
            factors = [v if k == 1 else f"{v}^{k}" for v, k in m]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"ParamPolynomial({self})"


def _unit_inverse(d, p):
    """1/d mod p; raises DegenerateDenominator when p divides d."""
    if d % p == 0:
        raise DegenerateDenominator(
            f"coefficient denominator {d} vanishes mod {p}")
    return pow(d, -1, p)


def _operand(x):
    """x, or the constant x for an int or Fraction, else None; the cheap
    test first, as isinstance(x, Fraction) goes through an ABC metaclass."""
    if isinstance(x, ParamPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return ParamPolynomial.const(x)
    return None


def common_denominator(polys):
    """The least monic monomial whose product with each of `polys` is a
    polynomial: each parameter to its largest negative exponent."""
    return _monomial_denominator(m for p in polys for m in p.terms)


def coefficient_table(polys):
    """(C, monomials, D) with sum_j C[f, j] * monomials[j] / D equal to
    polys[f]: D is the least common denominator of the coefficients and
    C an integer array, int64 when every entry fits, else of Python
    integers."""
    monomials = {}
    for p in polys:
        for m in p.terms:
            monomials.setdefault(m, len(monomials))
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    C = np.zeros((len(polys), len(monomials)), dtype=object)
    for f, p in enumerate(polys):
        for m, c in p.terms.items():
            C[f, monomials[m]] = c.numerator * (den // c.denominator)
    if all(abs(x) < 2**63 for x in C.flat):
        C = C.astype(np.int64)
    return C, tuple(monomials), den


def _monomial_denominator(monomials):
    """The least monic monomial whose product with each of `monomials`
    has no negative exponent."""
    den = {}
    for m in monomials:
        for v, k in m:
            if -k > den.get(v, 0):
                den[v] = -k
    return ParamPolynomial({tuple(sorted(den.items())): Fraction(1)})


# ---------------------------------------------------------------------------
# parsing


def parse_fraction(text):
    """Parse '+ - * / ^ ( )' expressions over integers and parameter names
    into a ParamPolynomial.  Division is only supported by monomials.  The
    parse is memoized; every call returns a polynomial of its own."""
    return ParamPolynomial._of(dict(_parse_fraction(text).terms))


@lru_cache(maxsize=1024)
def _parse_fraction(text):
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] >= len(tokens):
            raise ValueError(f"unexpected end of input in {text!r}")
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        node = parse_atom()
        if peek() == "^":
            take()
            exp_sign = 1
            if peek() == "-":
                take()
                exp_sign = -1
            t = take()
            if not (isinstance(t, tuple) and t[0] == "int"):
                raise ValueError("exponent must be an integer")
            node = node ** (exp_sign * t[1])
        return node * sign

    def parse_atom():
        t = take()
        if t == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if isinstance(t, tuple):
            kind, value = t
            if kind == "int":
                return ParamPolynomial.const(value)
            if kind == "name":
                return ParamPolynomial.variable(value)
        raise ValueError(f"unexpected token {t!r} in {text!r}")

    try:
        node = parse_expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def parse_polynomial(text):
    """parse_fraction, rejecting a result with a denominator."""
    p = parse_fraction(text)
    if p.split()[1] != 1:
        raise ValueError(f"not a polynomial: {p}")
    return p


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in {text!r}")
    return out


# ---------------------------------------------------------------------------
# matrices


class TensorMatrix:
    """Sparse matrix whose distinct entries share one table of integer
    coefficients over Laurent monomials: entry f is
    sum_j coefficients[f, j] * monomials[j] / denominator.

    `cells` is an integer array of (row, col, f) rows.  Entries whose
    coefficients all vanish and monomials that no entry uses are
    dropped, so `entries` holds one (row, col, f) row per nonzero cell.
    An evaluation evaluates each monomial once and forms every entry in
    one vectorized product.
    """

    __slots__ = ("rows", "cols", "entries", "_coefficients", "_monomials",
                 "_denominator", "_residues")

    def __init__(self, rows, cols, cells, coefficients, monomials,
                 denominator):
        nonzero = coefficients != 0
        alive = nonzero.any(axis=1)
        used = nonzero.any(axis=0)
        entries = cells[alive[cells[:, 2]]]
        entries[:, 2] = (np.cumsum(alive) - 1)[entries[:, 2]]
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._coefficients = coefficients[alive][:, used]
        self._monomials = [m for m, u in zip(monomials, used) if u]
        self._denominator = denominator
        self._residues = None  # coefficients / denominator mod _PRIME

    @classmethod
    def from_rows(cls, rows):
        """A hand-written matrix: `rows` of ints, Fractions or
        ParamPolynomials.  Equal entries share one coefficient row."""
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        index = {}
        cells = [(r, c, index.setdefault(ParamPolynomial.lift(x), len(index)))
                 for r, row in enumerate(rows) for c, x in enumerate(row) if x]
        cells = np.array(cells, dtype=np.intp).reshape(-1, 3)
        return cls(len(rows), cols, cells, *coefficient_table(list(index)))

    def parameters(self):
        return tuple(sorted({v for m in self._monomials for v, _ in m}))

    def denominator(self):
        """The common denominator of the entries."""
        return _monomial_denominator(self._monomials)

    def polynomials(self):
        """The distinct entries as ParamPolynomials, indexed like the
        third column of `entries`."""
        den = self._denominator
        return [ParamPolynomial({m: Fraction(a, den)
                                 for m, a in zip(self._monomials, row) if a})
                for row in self._coefficients.tolist()]

    def slices(self, transpose=False):
        """The distinct nonzero rows of the stacked integer slices
        [A_1; A_2; ...] (of [A_1ᵀ; A_2ᵀ; ...] when `transpose`), where
        this matrix is sum_j A_j * monomials[j] / denominator, as tuples
        of Python integers."""
        C = self._coefficients
        S = np.zeros((C.shape[1], self.rows, self.cols), dtype=C.dtype)
        r, c, f = self.entries.T
        S[:, r, c] = C[f].T
        if transpose:
            S = S.transpose(0, 2, 1)
        rows = S.reshape(-1, S.shape[2]).tolist()
        return list({tuple(row): None for row in rows if any(row)})

    def modular(self, point):
        """The matrix modulo _PRIME at an integer point, as an int64
        array."""
        p = _PRIME
        if self._residues is None:
            inv = _unit_inverse(self._denominator, p)
            self._residues = (self._coefficients % p * inv % p).astype(
                np.int64)
        try:
            values = []
            for m in self._monomials:
                t = 1
                for v, k in m:
                    t = t * pow(point[v] % p, k, p) % p
                values.append(t)
        except (KeyError, ValueError):
            _bad_point(self.parameters(), self.denominator(), point)
        # both factors are below p, so no int64 product overflows
        x = np.array(values, dtype=np.int64)
        forms = (self._residues * x % p).sum(axis=1) % p
        e = self.entries
        arr = np.zeros((self.rows, self.cols), dtype=np.int64)
        arr[e[:, 0], e[:, 1]] = forms[e[:, 2]]
        return arr

    def integer_rows(self, assignment):
        """(rows, den): the matrix at a point is rows / den, with rows
        lists of Python integers and den a positive integer."""
        try:
            values = []
            for m in self._monomials:
                t = Fraction(1)
                for v, k in m:
                    t *= _as_fraction(assignment[v]) ** k
                values.append(t)
        except (KeyError, ZeroDivisionError):
            _bad_point(self.parameters(), self.denominator(), assignment)
        # one integer product over the common denominator of the values
        scale = lcm(*(t.denominator for t in values))
        x = np.array([t.numerator * (scale // t.denominator) for t in values],
                     dtype=object)
        forms = (self._coefficients.astype(object) @ x).tolist()
        rows = [[0] * self.cols for _ in range(self.rows)]
        for r, c, f in self.entries.tolist():
            rows[r][c] = forms[f]
        return rows, self._denominator * scale

    def rational_rows(self, assignment):
        """The matrix at a point, as rows of Fractions."""
        rows, den = self.integer_rows(assignment)
        return [[Fraction(x, den) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# rank modes


class SymbolicGeneric:
    """Rank over the rational-function field via fraction-free elimination."""

    variant = "symbolic-generic"


class Randomized:
    """Max rank over integer specializations; a generic-rank lower bound."""

    variant = "randomized"

    def __init__(self, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.seed = seed
        self.trials = trials


class Specialized:
    """Exact rank over Q at a fully specified parameter point."""

    variant = "specialized"

    def __init__(self, assignment):
        self.assignment = {k: _as_fraction(v) for k, v in assignment.items()}


def matrix_rank(M, mode, nonzero=(), trials=None):
    """(rank, kernel_dim) of the TensorMatrix M under the given mode.

    `nonzero` lists polynomials assumed nonzero (nondegeneracy
    conditions); Randomized sampling rejects points on their zero locus
    and Specialized refuses points violating them.  Entries may have
    denominators: Randomized sampling also rejects a point where one
    vanishes, and Specialized raises DegenerateDenominator at such a
    point.  `trials`, a range of trial indices, runs only those of a
    Randomized mode's trials, at the points the full sequence draws for
    them; by default all run.
    """
    nonzero = _polynomials(nonzero)
    if isinstance(mode, SymbolicGeneric):
        r = _rank_symbolic(M)
    elif isinstance(mode, Randomized):
        r = _rank_randomized(M, mode, nonzero, trials)
    elif isinstance(mode, Specialized):
        r = _rank_specialized(M, mode, nonzero)
    else:
        raise TypeError(f"unknown rank mode {mode!r}")
    return r, M.cols - r


def _polynomials(nonzero):
    """Nondegeneracy conditions as ParamPolynomials; a name stands for
    its parameter."""
    return [p if isinstance(p, ParamPolynomial)
            else ParamPolynomial.variable(p) for p in nonzero]


def kernel_basis(M, mode):
    """Exact rational kernel basis; Specialized mode only."""
    if not isinstance(mode, Specialized):
        raise TypeError("kernel_basis requires Specialized mode")
    return _kernel(*row_reduce(M.integer_rows(mode.assignment)[0]),
                   M.cols)


def _kernel(work, pivots, ncols):
    """The kernel basis read off row_reduce's (work, pivots): for each
    free column, the vector that is 1 there and solves every row."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(work, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


# -- degree-0 (co)cycle certificates ---------------------------------------


def constant_kernel(M, transpose=False):
    """A basis of the constant vectors v with M·v = 0 identically in the
    parameters (vᵀ·M = 0 when `transpose`), as tuples of Fractions.

    M = sum_j A_j * mu_j / D over distinct Laurent monomials mu_j, which
    are linearly independent, so M·v vanishes exactly when every
    A_j·v does: v spans the common kernel of the slices, taken exactly.
    """
    return _kernel(*row_reduce(M.slices(transpose)),
                   M.rows if transpose else M.cols)


def certificate_rank(N, vectors, nonzero=(), transpose=False):
    """A proven lower bound of the generic rank of [N | V] ([Nᵀ | V] when
    `transpose`), the columns of V the constant `vectors`: its rank mod
    p at the point where trial 1 of Randomized() ranks N.  None when a
    vector has a denominator that is not a unit mod p.

    A minor that is nonzero mod p at a point where no denominator
    vanishes is nonzero as a rational function.
    """
    p = _PRIME
    try:
        V = [[x.numerator * pow(x.denominator, -1, p) % p for x in v]
             for v in vectors]
    except ValueError:
        return None
    point = next(_sample_points(N, Randomized(), _polynomials(nonzero)))
    A = N.modular(point)
    if transpose:
        A = A.T
    V = np.array(V, dtype=np.int64).reshape(len(vectors), A.shape[0])
    return _rank_mod_p(np.hstack([A, V.T]))


# -- symbolic (Bareiss) ----------------------------------------------------


def _rank_symbolic(M):
    """The generic rank of the TensorMatrix M over Q(x): fraction-free
    (Bareiss) elimination over Z[x] on packed monomials (see
    _packed_rows).  Each step pivots on an entry with the fewest terms,
    then the least Markowitz count, and turns every other row into
    (row·piv − lead·top) / prev, an exact division since each entry is
    then a minor."""
    rows, guards = _packed_rows(M)
    prev = {0: 1}
    rank = 0
    while rows:
        col_nnz = Counter(c for row in rows.values() for c in row)
        _, _, pr, pc = min((len(p), (len(row) - 1) * (col_nnz[c] - 1), r, c)
                           for r, row in rows.items() for c, p in row.items())
        top = rows.pop(pr)
        piv = top.pop(pc)
        for r, row in list(rows.items()):
            lead = row.pop(pc, {})
            row = {c: _mul_sub(row.get(c, {}), piv, lead, top.get(c, {}))
                   for c in (row.keys() | top.keys() if lead else row)}
            rows[r] = {c: _divide_packed(p, prev, guards)
                       for c, p in row.items() if p}
        rows = {r: row for r, row in rows.items() if row}
        prev = piv
        rank += 1
    return rank


def _packed_rows(T):
    """({row: {col: entry}}, guards): the TensorMatrix T over Z[x], each
    nonzero entry a dict {packed monomial: int}.

    Each column is divided by its least monomial (every parameter to its
    least exponent there) and T by its denominator D, which keeps the
    rank over Q(x).  A packed monomial is one integer with a bit field
    per parameter, the first one most significant, so packed integers
    compare in lex order and monomials multiply by addition.  A field
    holds twice the sum over columns of its parameter's column degree,
    which bounds every minor and every product before a division, plus a
    guard bit (set in `guards`) that a borrow out of the field sets."""
    params = T.parameters()
    exps = [[dict(m).get(v, 0) for v in params] for m in T._monomials]
    terms = [[(j, a) for j, a in enumerate(row) if a]
             for row in T._coefficients.tolist()]
    by_col = {}
    for r, c, f in T.entries.tolist():
        by_col.setdefault(c, []).append((r, f))
    low, degree = {}, [0] * len(params)
    for c, cells in by_col.items():
        used = list(zip(*(exps[j] for _, f in cells for j, _ in terms[f])))
        low[c] = [min(e) for e in used]
        degree = [d + max(e) - min(e) for d, e in zip(degree, used)]
    widths = [(2 * d).bit_length() + 1 for d in degree]
    shifts = [sum(widths[i + 1:]) for i in range(len(widths))]
    guards = sum(1 << (s + w - 1) for s, w in zip(shifts, widths))

    def pack(e):
        return sum(k << s for k, s in zip(e, shifts))

    packed = [pack(e) for e in exps]
    rows = {}
    for c, cells in by_col.items():
        base = pack(low[c])
        for r, f in cells:
            rows.setdefault(r, {})[c] = {packed[j] - base: a
                                         for j, a in terms[f]}
    return rows, guards


def _mul_sub(a, b, c, d):
    """a·b − c·d for packed polynomials ({} is zero)."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    for ec, cc in c.items():
        for ed, cd in d.items():
            e = ec + ed
            out[e] = out.get(e, 0) - cc * cd
    return {e: x for e, x in out.items() if x}


def _divide_packed(num, den, guards):
    """The quotient num / den of packed polynomials over Z[x] (see
    _packed_rows), by leading-term cancellation in lex order; a divisor
    that is a constant or a monomial divides term by term.  Raises
    ValueError when a quotient term has a nonzero integer remainder, a
    negative exponent or a set guard bit (a borrow): the division is not
    exact, or the fields are too narrow."""
    de = max(den)
    dc = den[de]
    if len(den) == 1:
        quot = {e - de: x // dc for e, x in num.items()}
        if any(x % dc for x in num.values()) or de and any(
                e < 0 or e & guards for e in quot):
            raise ValueError("inexact division by a monomial")
        return quot
    rem = dict(num)
    quot = {}
    while rem:
        re = max(rem)
        qc, r = divmod(rem[re], dc)
        qe = re - de
        if r or qe < 0 or qe & guards:
            raise ValueError("inexact polynomial division")
        quot[qe] = qc
        for e, c in den.items():
            e += qe
            x = rem.get(e, 0) - qc * c
            if x:
                rem[e] = x
            else:
                del rem[e]
    return quot


# -- randomized ------------------------------------------------------------


def _rank_randomized(M, mode, nonzero, trials=None):
    points = _sample_points(M, mode, nonzero)
    if not M.parameters():
        # every trial would eliminate the same matrix; take the exact rank
        return _rank_specialized(M, Specialized({}), ())
    if trials is None:
        trials = range(mode.trials)
    best = 0
    limit = min(M.rows, M.cols)
    # the points of earlier trials are drawn, not ranked, so that each
    # trial ranks at the same point whichever trials run
    for trial, point in zip(range(trials.stop), points):
        if trial < trials.start:
            continue
        r = _rank_mod_p(M.modular(point))
        if r > best:
            best = r
        if best == limit:
            break
    return best


def _sample_points(M, mode, nonzero):
    """The sample points of a Randomized mode's trials on M, in order and
    without end.  A point must not zero a nondegeneracy polynomial, nor a
    denominator of an entry: a nonzero monomial stays nonzero mod p in
    _COEFF_RANGE."""
    # rejection sampling would never find a point off a zero polynomial
    for p in nonzero:
        if p.is_zero():
            raise DegenerateDenominator(
                "nondegeneracy polynomial is identically zero")
    params = sorted(set(M.parameters()).union(
        *(p.parameters() for p in nonzero)))
    guards = nonzero + [M.denominator()]
    rng = random.Random(mode.seed)
    lo, hi = _COEFF_RANGE

    # a plain function, not a generator, so that the check above runs
    # at the call, before any point is drawn
    def draw():
        while True:
            point = {v: rng.randint(lo, hi) for v in params}
            if all(p.evaluate(point) != 0 for p in guards):
                return point

    return iter(draw, None)


def _rank_mod_p(arr):
    A = arr % _PRIME
    nrows, ncols = A.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv_rows = np.nonzero(A[rank:, col])[0]
        if piv_rows.size == 0:
            continue
        pr = rank + int(piv_rows[0])
        if pr != rank:
            A[[rank, pr]] = A[[pr, rank]]
        inv = pow(int(A[rank, col]), -1, _PRIME)
        A[rank, col:] = (A[rank, col:] * inv) % _PRIME
        # only rows with a nonzero in this column change: piv_rows past
        # the pivot (the row swapped into pr has a zero there)
        rows = rank + piv_rows[1:]
        if rows.size:
            A[rows, col:] = (A[rows, col:]
                             - A[rows, col][:, None] * A[rank, col:]) % _PRIME
        rank += 1
    return rank


# -- specialized -----------------------------------------------------------


def _rank_specialized(M, mode, nonzero):
    for p in nonzero:
        if p.evaluate(mode.assignment) == 0:
            raise DegenerateDenominator(
                f"assignment zeroes nondegeneracy polynomial {p}")
    rows = M.integer_rows(mode.assignment)[0]
    # rank(M) = rank(Mᵀ): fewer, longer rows take fewer row operations
    return len(echelon(rows if M.rows <= M.cols else list(zip(*rows)))[1])


def inverse(T):
    """Exact inverse of a square matrix of ints or Fractions, as rows of
    Fractions; raises ValueError when T is singular."""
    n = len(T)
    work, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(T)])
    # [T | I] always has rank n; T is invertible iff no pivot leaves T
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]]
            for i, row in enumerate(work)]


def row_reduce(rows):
    """Reduced row echelon form over Z of rows of ints or Fractions.

    Each row is scaled to integers by the LCM of its denominators; then
    `echelon` clears each pivot column below the pivot and a back pass,
    pivot by pivot, clears it above with the same row operation, step
    for step the Gauss-Jordan elimination that clears both at once.
    Returns (work, pivots) as echelon does.  Up to a nonzero scale of
    each row this is the unique RREF, so work[i][c] / work[i][pivots[i]]
    does not depend on the pivot order.
    """
    work = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (den // x.denominator) for x in row])
    work, pivots = echelon(work)
    for rank, col in enumerate(pivots):
        _clear(work, rank, col, range(rank))
    return work, pivots


def echelon(rows):
    """Row echelon form over Z of integer rows (left as they are).

    Column by column, left to right, it pivots on the entry of least
    absolute value and clears the column in the rows below (`_clear`).
    Returns (work, pivots): the nonzero rows, row i having its pivot in
    column pivots[i]; len(pivots) is the rank over Q.
    """
    work = [row for row in rows if any(row)]
    pivots = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        if rank == len(work):
            break
        live = [(abs(work[i][col]), i) for i in range(rank, len(work))
                if work[i][col]]
        if not live:
            continue
        piv = min(live)[1]
        work[rank], work[piv] = work[piv], work[rank]
        _clear(work, rank, col, range(rank + 1, len(work)))
        pivots.append(col)
    return work[:len(pivots)], pivots


def _clear(work, rank, col, rows):
    """Clear column `col` of work[i], i in `rows`, with gcd multipliers
    against the pivot row work[rank]; divide each by its content."""
    top = work[rank]
    pv = top[col]
    for i in rows:
        row = work[i]
        x = row[col]
        if not x:
            continue
        g = gcd(pv, x)
        a, b = pv // g, x // g
        row = [u * a - v * b for u, v in zip(row, top)]
        content = gcd(*row)
        if content > 1:
            row = [u // content for u in row]
        work[i] = row
