"""Exact arithmetic core: rationals, sparse multivariate polynomials,
monomial-denominator fractions, and rank/kernel computation for matrices
whose entries are polynomials in named parameters.

Scalars are `fractions.Fraction` throughout.  A polynomial is a sparse map
from exponent vectors (aligned with a sorted variable tuple) to nonzero
rational coefficients; construction always canonicalizes, so equality is
structural equality.
"""

from fractions import Fraction
from math import gcd, lcm
import random

import numpy as np

# Gaussian elimination for the randomized rank mode runs modulo this prime;
# (_PRIME-1)^2 < 2^63, so int64 products cannot overflow.
_PRIME = 2**31 - 1

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 3
DEFAULT_COEFF_RANGE = (-10_000, 10_000)


class MissingParameter(KeyError):
    """An evaluation assignment does not cover every parameter."""


class DegenerateDenominator(ZeroDivisionError):
    """A fraction's denominator vanishes at the requested point."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ParamPolynomial:
    """Multivariate polynomial over Q in named parameters, canonical form.

    Canonical form: variables sorted by name, no zero coefficients stored,
    no variable kept whose exponent is zero in every term.  The zero
    polynomial has an empty term map and an empty alphabet.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables=(), terms=None):
        vs = tuple(variables)
        tm = dict(terms) if terms else {}
        # canonicalize: drop zero coefficients, drop unused variables, sort
        tm = {e: c for e, c in tm.items() if c != 0}
        if tm:
            used = [i for i in range(len(vs)) if any(e[i] for e in tm)]
            order = sorted(used, key=lambda i: vs[i])
            vs2 = tuple(vs[i] for i in order)
            tm2 = {}
            for e, c in tm.items():
                key = tuple(e[i] for i in order)
                tm2[key] = tm2.get(key, Fraction(0)) + c
            tm = {e: c for e, c in tm2.items() if c != 0}
            vs = vs2 if tm else ()
        else:
            vs = ()
        self.vars = vs
        self.terms = tm

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        value = _as_fraction(value)
        if value == 0:
            return cls()
        return cls((), {(): value})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.vars

    def constant_value(self):
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPolynomial.const(other)
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- alignment of alphabets -------------------------------------------

    @staticmethod
    def _aligned(a, b):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        vs = tuple(sorted(set(a.vars) | set(b.vars)))
        return vs, a._remap(vs), b._remap(vs)

    def _remap(self, vs):
        idx = {v: i for i, v in enumerate(vs)}
        pos = [idx[v] for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            key = [0] * len(vs)
            for p, x in zip(pos, e):
                key[p] = x
            out[tuple(key)] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPolynomial.const(other)
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        vs, ta, tb = self._aligned(self, other)
        out = dict(ta)
        for e, c in tb.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ParamPolynomial(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPolynomial.const(other)
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return ParamPolynomial()
            return ParamPolynomial(self.vars,
                                   {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        vs, ta, tb = self._aligned(self, other)
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return ParamPolynomial(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ParamPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- leading term in graded lex (highest first) ------------------------

    def _lead(self):
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def divide_exact(self, divisor):
        """Exact polynomial division; raises if the division is not exact.

        If divisor | self then lead(self) = lead(divisor) * lead(quotient)
        in any monomial order, so repeated leading-term cancellation
        terminates with zero remainder exactly when the division is exact.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self * (1 / divisor.constant_value())
        vs, tr, td = self._aligned(self, divisor)
        rem = dict(tr)
        de = max(td, key=lambda e: (sum(e), e))
        dc = td[de]
        quot = {}
        while rem:
            re = max(rem, key=lambda e: (sum(e), e))
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ValueError("inexact polynomial division")
            qc = rem[re] / dc
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for e, c in td.items():
                key = tuple(a + b for a, b in zip(qe, e))
                nxt = rem.get(key, Fraction(0)) - qc * c
                if nxt:
                    rem[key] = nxt
                else:
                    rem.pop(key, None)
        return ParamPolynomial(vs, quot)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment):
        """Exact value at a point; raises MissingParameter when incomplete."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise MissingParameter(v)
            vals.append(_as_fraction(assignment[v]))
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(vals, e):
                if k:
                    term *= x ** k
            total += term
        return total

    def evaluate_mod(self, assignment, p=_PRIME):
        """Value modulo p at an integer point (coefficients inverted mod p)."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise MissingParameter(v)
            vals.append(assignment[v] % p)
        total = 0
        for e, c in self.terms.items():
            t = (c.numerator % p) * pow(c.denominator, p - 2, p) % p
            for x, k in zip(vals, e):
                if k:
                    t = t * pow(x, k, p) % p
            total = (total + t) % p
        return total

    def substitute(self, assignment):
        """Substitute values (numbers, polynomials or fractions) for every
        variable; returns a PolyFraction."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise MissingParameter(v)
            vals.append(PolyFraction.lift(assignment[v]))
        total = PolyFraction.zero()
        for e, c in self.terms.items():
            term = PolyFraction.lift(ParamPolynomial.const(c))
            for x, k in zip(vals, e):
                for _ in range(k):
                    term = term * x
            total = total + term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
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


# Convenience aliases used throughout the package.
P0 = ParamPolynomial.zero
P1 = ParamPolynomial.const
PV = ParamPolynomial.variable


class PolyFraction:
    """Quotient num/den where den is a monic monomial (e.g. a power of C144).

    This is exactly the shape of the non-polynomial structure constants in
    the catalog: polynomial numerators over powers of a single assumed-nonzero
    parameter.  Canonical form: den has coefficient 1 and shares no variable
    power with every term of num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = ParamPolynomial.const(1)
        if not isinstance(num, ParamPolynomial) or not isinstance(den, ParamPolynomial):
            raise TypeError("PolyFraction needs ParamPolynomial parts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not den.is_monomial():
            raise ValueError("denominator must be a monomial")
        (de, dc), = den.terms.items()
        if dc != 1:
            num = num * (1 / dc)
            den = ParamPolynomial(den.vars, {de: Fraction(1)})
        if num.is_zero():
            den = ParamPolynomial.const(1)
        elif den.vars:
            # cancel common variable powers
            vs, tn, td = ParamPolynomial._aligned(num, den)
            (de,), = (list(td.keys()),)
            mins = [min(e[i] for e in tn) for i in range(len(vs))]
            cancel = tuple(min(m, d) for m, d in zip(mins, de))
            if any(cancel):
                tn = {tuple(a - b for a, b in zip(e, cancel)): c
                      for e, c in tn.items()}
                de = tuple(a - b for a, b in zip(de, cancel))
                num = ParamPolynomial(vs, tn)
                den = ParamPolynomial(vs, {de: Fraction(1)})
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(ParamPolynomial.zero())

    @classmethod
    def lift(cls, x):
        if isinstance(x, PolyFraction):
            return x
        if isinstance(x, ParamPolynomial):
            return cls(x)
        return cls(ParamPolynomial.const(_as_fraction(x)))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_constant()

    def as_polynomial(self):
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ParamPolynomial)):
            other = PolyFraction.lift(other)
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = PolyFraction.lift(other)
        num = self.num * other.den + other.num * self.den
        return PolyFraction(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-PolyFraction.lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = PolyFraction.lift(other)
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PolyFraction.lift(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        if not other.num.is_monomial():
            raise ValueError("can only divide by monomial fractions")
        (ne, nc), = other.num.terms.items()
        inv_num = self.num * other.den * (1 / nc)
        inv_den = ParamPolynomial(other.num.vars, {ne: Fraction(1)})
        return PolyFraction(inv_num, self.den * inv_den)

    def evaluate(self, assignment):
        d = self.den.evaluate(assignment)
        if d == 0:
            raise DegenerateDenominator(str(self.den))
        return self.num.evaluate(assignment) / d

    def parameters(self):
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        den_s = str(self.den)
        if self.num.is_monomial() and not any(c < 0 for c in self.num.terms.values()):
            return f"{self.num}/{den_s}"
        return f"({self.num})/{den_s}"

    def __repr__(self):
        return f"PolyFraction({self})"


# ---------------------------------------------------------------------------
# parsing


def parse_fraction(text):
    """Parse '+ - * / ^ ( )' expressions over integers and parameter names
    into a PolyFraction.  Division is only supported by monomials."""
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
            n = t[1]
            if exp_sign < 0:
                node = PolyFraction.lift(1) / _power(node, n)
            else:
                node = _power(node, n)
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
                return PolyFraction.lift(value)
            if kind == "name":
                return PolyFraction.lift(ParamPolynomial.variable(value))
        raise ValueError(f"unexpected token {t!r} in {text!r}")

    def _power(node, n):
        out = PolyFraction.lift(1)
        for _ in range(n):
            out = out * node
        return out

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def parse_polynomial(text):
    frac = parse_fraction(text)
    return frac.as_polynomial()


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


class PolyMatrix:
    """Sparse matrix with ParamPolynomial entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), p in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError((r, c))
                if isinstance(p, (int, Fraction)):
                    p = ParamPolynomial.const(p)
                if not p.is_zero():
                    self.entries[(r, c)] = p

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, p in enumerate(row):
                entries[(r, c)] = p if isinstance(p, ParamPolynomial) \
                    else ParamPolynomial.const(p)
        return cls(rows, cols, entries)

    def entry(self, r, c):
        return self.entries.get((r, c), ParamPolynomial.zero())

    def transpose(self):
        return PolyMatrix(self.cols, self.rows,
                          {(c, r): p for (r, c), p in self.entries.items()})

    def is_zero(self):
        return not self.entries

    def parameters(self):
        out = set()
        for p in self.entries.values():
            out.update(p.vars)
        return tuple(sorted(out))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
            (other.rows, other.cols, other.entries)

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_col = {}
        for (r, c), p in other.entries.items():
            by_col.setdefault(c, []).append((r, p))
        mine_by_col = {}
        for (r, c), p in self.entries.items():
            mine_by_col.setdefault(c, []).append((r, p))
        out = {}
        for c, terms in by_col.items():
            acc = {}
            for k, p in terms:
                for r, q in mine_by_col.get(k, ()):
                    key = r
                    if key in acc:
                        acc[key] = acc[key] + q * p
                    else:
                        acc[key] = q * p
            for r, v in acc.items():
                if not v.is_zero():
                    out[(r, c)] = v
        return PolyMatrix(self.rows, other.cols, out)


# ---------------------------------------------------------------------------
# rank modes


class SymbolicGeneric:
    """Rank over the rational-function field via fraction-free elimination."""

    variant = "symbolic-generic"

    def describe(self):
        return {"variant": self.variant}


class Randomized:
    """Max rank over integer specializations; a generic-rank lower bound."""

    variant = "randomized"

    def __init__(self, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS,
                 coeff_range=DEFAULT_COEFF_RANGE):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = coeff_range
        if lo >= hi:
            raise ValueError("empty coefficient range")
        self.seed = seed
        self.trials = trials
        self.coeff_range = (lo, hi)

    def describe(self):
        return {"variant": self.variant, "seed": self.seed,
                "trials": self.trials,
                "range": list(self.coeff_range)}


class Specialized:
    """Exact rank over Q at a fully specified parameter point."""

    variant = "specialized"

    def __init__(self, assignment):
        self.assignment = {k: _as_fraction(v) for k, v in assignment.items()}

    def describe(self):
        return {"variant": self.variant,
                "assignment": {k: str(v) for k, v in
                               sorted(self.assignment.items())}}


def matrix_rank(M, mode, nonzero=()):
    """(rank, kernel_dim) of M under the given mode.

    `nonzero` lists polynomials assumed nonzero (nondegeneracy conditions);
    Randomized sampling rejects points on their zero locus and Specialized
    refuses points violating them.
    """
    nonzero = [p if isinstance(p, ParamPolynomial) else PV(p) for p in nonzero]
    if isinstance(mode, SymbolicGeneric):
        r = _rank_symbolic(M)
    elif isinstance(mode, Randomized):
        r = _rank_randomized(M, mode, nonzero)
    elif isinstance(mode, Specialized):
        r = _rank_specialized(M, mode, nonzero)
    else:
        raise TypeError(f"unknown rank mode {mode!r}")
    return r, M.cols - r


def kernel_basis(M, mode):
    """Exact rational kernel basis; Specialized mode only."""
    if not isinstance(mode, Specialized):
        raise TypeError("kernel_basis requires Specialized mode")
    work, pivots = row_reduce(_evaluated_rows(M, mode.assignment))
    basis = []
    for fc in range(M.cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * M.cols
        v[fc] = Fraction(1)
        for row, pc in zip(work, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return basis


# -- symbolic (Bareiss) ----------------------------------------------------


def _rank_symbolic(M):
    work = [[M.entry(r, c) for c in range(M.cols)] for r in range(M.rows)]
    nrows, ncols = M.rows, M.cols
    prev = ParamPolynomial.const(1)
    rank = 0
    while True:
        pivot = None
        best = None
        for r in range(rank, nrows):
            for c in range(rank, ncols):
                p = work[r][c]
                if p.is_zero():
                    continue
                row_nnz = sum(1 for cc in range(rank, ncols)
                              if not work[r][cc].is_zero())
                col_nnz = sum(1 for rr in range(rank, nrows)
                              if not work[rr][c].is_zero())
                key = (p.total_degree(), (row_nnz - 1) * (col_nnz - 1), r, c)
                if best is None or key < best:
                    best = key
                    pivot = (r, c)
        if pivot is None:
            return rank
        pr, pc = pivot
        if pr != rank:
            work[pr], work[rank] = work[rank], work[pr]
        if pc != rank:
            for row in work:
                row[pc], row[rank] = row[rank], row[pc]
        piv = work[rank][rank]
        for r in range(rank + 1, nrows):
            lead = work[r][rank]
            for c in range(rank + 1, ncols):
                num = work[r][c] * piv - lead * work[rank][c]
                work[r][c] = num.divide_exact(prev)
            work[r][rank] = ParamPolynomial.zero()
        prev = piv
        rank += 1
        if rank == nrows or rank == ncols:
            return rank


# -- randomized ------------------------------------------------------------


def _rank_randomized(M, mode, nonzero):
    params = set(M.parameters())
    for p in nonzero:
        params.update(p.vars)
    if not params:
        # every trial would eliminate the same matrix; take the exact rank
        return _rank_specialized(M, Specialized({}), nonzero)
    params = sorted(params)
    rng = random.Random(mode.seed)
    lo, hi = mode.coeff_range
    best = 0
    limit = min(M.rows, M.cols)
    for _ in range(mode.trials):
        while True:
            point = {v: rng.randint(lo, hi) for v in params}
            if all(p.evaluate(point) != 0 for p in nonzero):
                break
        arr = _modular_matrix(M, point)
        r = _rank_mod_p(arr)
        if r > best:
            best = r
        if best == limit:
            break
    return best


def _modular_matrix(M, point, p=_PRIME):
    arr = np.zeros((M.rows, M.cols), dtype=np.int64)
    for (r, c), poly in M.entries.items():
        arr[r, c] = poly.evaluate_mod(point, p)
    return arr


def _rank_mod_p(arr, p=_PRIME):
    A = arr % p
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
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank, col:] = (A[rank, col:] * inv) % p
        below = A[rank + 1:, col:]
        factors = A[rank + 1:, col][:, None]
        if below.size:
            A[rank + 1:, col:] = (below - factors * A[rank, col:]) % p
        rank += 1
    return rank


# -- specialized -----------------------------------------------------------


def _evaluated_rows(M, assignment):
    rows = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (r, c), poly in M.entries.items():
        rows[r][c] = poly.evaluate(assignment)
    return rows


def _rank_specialized(M, mode, nonzero):
    for p in nonzero:
        if p.evaluate(mode.assignment) == 0:
            raise DegenerateDenominator(
                f"assignment zeroes nondegeneracy polynomial {p}")
    return len(row_reduce(_evaluated_rows(M, mode.assignment))[1])


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

    Each row is first scaled to integers by the LCM of its denominators.
    Gauss-Jordan elimination then runs column by column, left to right:
    it pivots on the entry of least absolute value, clears the column in
    every other row with gcd multipliers, and divides each changed row by
    its content.  Returns (work, pivots): the nonzero reduced rows, row i
    having its pivot in column pivots[i].  Up to a nonzero scale of each
    row this is the unique RREF, so work[i][c] / work[i][pivots[i]] does
    not depend on the pivot order.
    """
    work = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
        if any(row):
            work.append(row)
    pivots = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        if rank == len(work):
            break
        piv = None
        for i in range(rank, len(work)):
            x = work[i][col]
            if x and (piv is None or abs(x) < abs(work[piv][col])):
                piv = i
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        pv = top[col]
        for i, row in enumerate(work):
            x = row[col]
            if not x or i == rank:
                continue
            g = gcd(pv, x)
            a, b = pv // g, x // g
            row = [u * a - v * b for u, v in zip(row, top)]
            content = gcd(*row)
            if content > 1:
                row = [u // content for u in row]
            work[i] = row
        pivots.append(col)
    return work, pivots
