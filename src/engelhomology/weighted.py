"""Weighted chain complexes of the three graded superalgebra structures.

A chain word of length m is a product of m letters, each letter a basis
monomial of one graded component.  In the desuspended picture a letter of
grade g behaves with parity (g+1) mod 2: odd-grade letters commute
(symmetric powers), even-grade letters anticommute (exterior powers).  The
boundary pairs letters off through the structure bracket:

    d(x_1 ... x_m) = sum_{i<j} eps_ij (-1)^{p(x_i)} [x_i, x_j] x_1 ...
                     ^x_i ... ^x_j ... x_m

where p is the desuspension parity and eps_ij is the Koszul sign of moving
x_i then x_j to the front.  For a word of grade-0 letters this reduces to
the classical Chevalley-Eilenberg boundary sum_{i<j} (-1)^{i+j} [x_i,x_j] ^
rest.  The boundary preserves the total weight (= sum of letter grades) and
drops m by one; homology is H_m = ker d_m / im d_{m+1}.

Every bracket is linear in the 24 structure constants c_ijk, so d_m does
not depend on the algebra beyond them: each chain basis and each d_m is
built once per process and (complex, weight, m), d_m in integer
arithmetic from the brackets of letter pairs over an algebra whose
constants are variables, as an integer matrix F of linear forms in the
c_ijk.  An algebra's constants are an integer matrix K over their
Laurent monomials, so F·K holds the exact coefficients of every entry
of d_m, a TensorMatrix.  Every rank mode ranks that matrix directly,
denominators and all; only the public boundary_matrix clears them,
column by column, into another TensorMatrix.
"""

from bisect import bisect_left
from fractions import Fraction

import itertools

import numpy as np

from .exact import (
    ParamPolynomial,
    Randomized,
    Specialized,
    SymbolicGeneric,
    TensorMatrix,
    certificate_rank,
    coefficient_table,
    common_denominator,
    constant_kernel,
    matrix_rank,
)
from .liealg import LieAlgebra4
from .superalg import (
    FORM,
    MULTIVECTOR,
    GradedComponent,
    GradedElement,
    extended_bracket,
    form_bracket,
    schouten_bracket,
)

TANGENT = "tangent"
COTANGENT = "cotangent"
EXTENDED = "extended"


class ComplexKind:
    """Selects the letter alphabet and the structure bracket."""

    __slots__ = ("variant",)
    VARIANTS = (TANGENT, COTANGENT, EXTENDED)

    def __init__(self, variant):
        variant = str(variant).lower()
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown complex kind {variant!r}")
        self.variant = variant

    def components(self):
        """Letter components, ordered consistently with word sorting."""
        if self.variant == TANGENT:
            return tuple(GradedComponent(MULTIVECTOR, a) for a in range(1, 5))
        if self.variant == COTANGENT:
            return tuple(GradedComponent(FORM, p) for p in range(5))
        return tuple(GradedComponent(FORM, p) for p in range(5)) + \
            (GradedComponent(MULTIVECTOR, 1),)

    def bracket(self, g, u, v):
        if self.variant == TANGENT:
            return schouten_bracket(g, u, v)
        if self.variant == COTANGENT:
            return form_bracket(g, u, v)
        return extended_bracket(g, u, v)

    def __repr__(self):
        return f"ComplexKind({self.variant})"


def _as_kind(kind):
    return kind if isinstance(kind, ComplexKind) else ComplexKind(kind)


# ---------------------------------------------------------------------------
# signatures and chain bases

# A letter is (component, index-tuple); a word is a sorted tuple of them.


def enumerate_signatures(kind, weight, m):
    """All occupancies with (sum counts = m, sum count*grade = weight):
    tuples of (component, count) pairs in component order, zero counts
    left out.

    The empty word (m = 0, weight 0) counts as the scalar chain only for
    the tangent and extended structures; the cotangent chain space is empty
    in non-negative weights.
    """
    kind = _as_kind(kind)
    if m < 0 or (m == 0 and kind.variant == COTANGENT):
        return []
    comps = kind.components()
    grades = [c.grade for c in comps]
    out = []

    def recurse(pos, left_m, left_w, chosen):
        if pos == len(comps):
            if left_m == 0 and left_w == 0:
                out.append(chosen)
            return
        rest = grades[pos:]
        lo = min(rest) * left_m
        hi = max(rest) * left_m
        if not (min(lo, hi) <= left_w <= max(lo, hi)):
            return
        comp = comps[pos]
        g = comp.grade
        cap = left_m
        if comp.word_parity == 1:
            cap = min(cap, comp.dimension)
        if g > 0:
            cap = min(cap, left_w // g if left_w >= 0 else 0)
        elif g < 0:
            cap = min(cap, (-left_w) // (-g) if left_w <= 0 else 0)
        for k in range(cap + 1):
            recurse(pos + 1, left_m - k, left_w - k * g,
                    chosen + ((comp, k),) if k else chosen)

    recurse(0, m, weight, ())
    return out


class WeightedChainBasis:
    """Ordered basis of one chain space C_m in a fixed weight: for each
    occupancy, the products of each component's letter choices
    (anticommuting letters without repeats), in deterministic order."""

    __slots__ = ("words", "index")

    def __init__(self, kind, weight, m):
        words = []
        for occupancy in enumerate_signatures(kind, weight, m):
            chunks = []
            for comp, k in occupancy:
                letters = [(comp, idx) for idx in comp.basis()]
                pick = (itertools.combinations if comp.word_parity == 1
                        else itertools.combinations_with_replacement)
                chunks.append(pick(letters, k))
            words.extend(tuple(itertools.chain.from_iterable(pieces))
                         for pieces in itertools.product(*chunks))
        self.words = tuple(words)
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dimension(self):
        return len(self.words)


# (variant, weight, m) -> WeightedChainBasis; see chain_basis
_BASES = {}


def chain_basis(kind, weight, m):
    """The basis of C_m in one weight, built once per process."""
    key = (_as_kind(kind).variant, weight, m)
    got = _BASES.get(key)
    if got is None:
        got = _BASES[key] = WeightedChainBasis(kind, weight, m)
    return got


# ---------------------------------------------------------------------------
# boundary matrices


def _letter_bracket(g, kind, li, lj):
    """[li, lj] as a sorted list of (letter, coefficient)."""
    u = GradedElement.monomial(li[0], li[1])
    v = GradedElement.monomial(lj[0], lj[1])
    res = kind.bracket(g, u, v)
    # the bracket must land in the summed grade (weight preservation)
    assert res.component.grade == li[0].grade + lj[0].grade
    return [((res.component, idx), res.coeffs[idx])
            for idx in sorted(res.coeffs)]


# variant -> {(letter, letter): ((letter, form), ...)}; see _letter_forms
_LETTER_TABLES = {}
# (variant, weight, m) -> (rows, cols, F, cells) of d_m; see _boundary_tensor
_TENSORS = {}
# the structure constants c_ijk (i < j), in the column order of F
_CONSTANTS = tuple((i, j, k) for i in range(1, 5) for j in range(i + 1, 5)
                   for k in range(1, 5))
_CONSTANT_INDEX = {ijk: n for n, ijk in enumerate(_CONSTANTS)}


def _universal_algebra():
    """The algebra whose 24 structure constants c_ijk are independent
    variables, each named by its index triple."""
    return LieAlgebra4("universal", {
        ijk: ParamPolynomial.variable(ijk) for ijk in _CONSTANTS})


def _letter_forms(universal, kind, pair):
    """[li, lj] over the universal algebra as ((letter, form), ...), each
    form an integer linear form ((i, j, k), a), ... in the structure
    constants."""
    terms = []
    for letter, v in _letter_bracket(universal, kind, *pair):
        form = []
        for ((ijk, one),), a in v.terms.items():
            assert one == 1 and a.denominator == 1
            form.append((ijk, a.numerator))
        terms.append((letter, tuple(sorted(form))))
    return tuple(terms)


def _boundary_tensor(kind, weight, m):
    """d_m of a ComplexKind as an algebra-independent integer tensor
    (rows, cols, F, cells), built once per (variant, weight, m) on the
    chain_basis bases: row f of the int64 matrix F is a distinct entry,
    an integer linear form in the structure constants (column n holds
    the coefficient of _CONSTANTS[n]), and the rows of the integer array
    `cells` are (row, col, f), column by column.  Every bracket is
    linear in the constants, so over any algebra an entry is its form
    evaluated at that algebra's c_ijk.

    Each letter pair is bracketed once per complex variant (the letter
    table).  A word is sorted, so what is left of it without the pair
    is too: the bracket letter goes in by bisection, with the Koszul
    sign of the anticommuting letters it passes, and the term vanishes
    when it is an anticommuting letter already there.
    """
    key = (kind.variant, weight, m)
    got = _TENSORS.get(key)
    if got is not None:
        return got
    source = chain_basis(kind, weight, m)
    target = chain_basis(kind, weight, m - 1)
    table = _LETTER_TABLES.setdefault(kind.variant, {})
    universal = _universal_algebra()
    forms = {}
    cells = []
    for col, word in enumerate(source.words):
        pars = [letter[0].word_parity for letter in word]
        prefix = [0]
        for p in pars:
            prefix.append(prefix[-1] + p)
        acc = {}
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                eps = 1
                if pars[i] and prefix[i] % 2:
                    eps = -eps
                if pars[j] and (prefix[j] - pars[i]) % 2:
                    eps = -eps
                if pars[i]:
                    eps = -eps
                rest = word[:i] + word[i + 1:j] + word[j + 1:]
                rest_pars = pars[:i] + pars[i + 1:j] + pars[j + 1:]
                pair = (word[i], word[j])
                terms = table.get(pair)
                if terms is None:
                    terms = table[pair] = _letter_forms(universal, kind, pair)
                for letter, form in terms:
                    pos = bisect_left(rest, letter)
                    sign = eps
                    if letter[0].word_parity:
                        if pos < len(rest) and rest[pos] == letter:
                            continue
                        if sum(rest_pars[:pos]) % 2:
                            sign = -sign
                    row = target.index[rest[:pos] + (letter,) + rest[pos:]]
                    by_ijk = acc.setdefault(row, {})
                    for ijk, a in form:
                        by_ijk[ijk] = by_ijk.get(ijk, 0) + sign * a
        for row, by_ijk in acc.items():
            form = tuple(sorted((ijk, a) for ijk, a in by_ijk.items() if a))
            if form:
                cells.append((row, col, forms.setdefault(form, len(forms))))
    F = np.zeros((len(forms), len(_CONSTANTS)), dtype=np.int64)
    for f, form in enumerate(forms):
        for ijk, a in form:
            F[f, _CONSTANT_INDEX[ijk]] = a
    cells = np.array(cells, dtype=np.intp).reshape(-1, 3)
    F.flags.writeable = cells.flags.writeable = False
    got = _TENSORS[key] = (target.dimension, source.dimension, F, cells)
    return got


def _contraction(F, K):
    """F·K exactly: in int64 when no sum can overflow, else in Python
    integers."""
    if K.dtype == np.int64 and F.size and K.size:
        bound = int(np.abs(F).sum(axis=1).max()) * int(np.abs(K).max())
        if bound < 2**63:
            return F @ K
    return F.astype(object) @ K.astype(object)


class _BoundaryBuilder:
    """All d_m of one (algebra, kind): the boundary tensors contracted
    with the algebra's structure constants."""

    __slots__ = ("kind", "_constants")

    def __init__(self, g, kind):
        self.kind = _as_kind(kind)
        # K, monomials, D: row n of K / D is the constant _CONSTANTS[n]
        self._constants = coefficient_table(
            [g.c.get(ijk, ParamPolynomial.zero()) for ijk in _CONSTANTS])

    def boundary(self, weight, m):
        """d_m as a TensorMatrix: the coefficients F·K of its distinct
        entries over the monomials of the constants, with denominators.

        The cleared matrix is this one with each column scaled by a
        nonzero monomial, so both have the same rank, generically and at
        any point where no denominator vanishes: every rank mode takes
        this one.
        """
        rows, cols, F, cells = _boundary_tensor(self.kind, weight, m)
        K, monomials, den = self._constants
        return TensorMatrix(rows, cols, cells, _contraction(F, K), monomials,
                            den)

    def matrix(self, weight, m):
        """d_m with its denominators cleared column by column."""
        return _cleared_matrix(self.boundary(weight, m))


def _cleared_matrix(M):
    """The raw boundary TensorMatrix M with each column multiplied by
    the common denominator of its entries.  Cells that share a form and
    a denominator share one coefficient row.

    Multiplying a column by a nonzero monomial (a product of declared
    nonzero parameters) changes neither rank nor kernel dimension on the
    locus where those parameters do not vanish.  Only the raw columns
    compose: d_m after d_{m+1} = 0 holds before clearing.
    """
    values = M.polynomials()
    by_col = {}
    for row, col, f in M.entries.tolist():
        by_col.setdefault(col, []).append((row, f))
    products = {}
    cells = []
    for col, column in by_col.items():
        den = common_denominator(values[f] for _, f in column)
        for row, f in column:
            key = products.setdefault((f, den), len(products))
            cells.append((row, col, key))
    polys = [values[f] * den for f, den in products]
    cells = np.array(cells, dtype=np.intp).reshape(-1, 3)
    return TensorMatrix(M.rows, M.cols, cells, *coefficient_table(polys))


def boundary_matrix(kind, weight, m, algebra):
    """Matrix of d_m : C_m -> C_{m-1} with denominators cleared, as a
    TensorMatrix."""
    return _BoundaryBuilder(algebra, kind).matrix(weight, m)


# ---------------------------------------------------------------------------
# reports


class BettiReport:
    """Rows (m, SpaD, KerD, Bett) of one weighted complex.

    `routes` maps each m to how the rank of d_m was obtained (see
    homology_report); no output format prints it.
    """

    __slots__ = ("kind", "algebra_label", "source", "ident", "params",
                 "weight", "mode", "rows", "euler", "specialization",
                 "routes")

    def __init__(self, kind, algebra, weight, mode, rows, specialization=None,
                 routes=None):
        self.kind = _as_kind(kind)
        self.algebra_label = algebra.label
        catalogue = algebra.catalogue
        if catalogue is None:
            self.source, self.ident = "custom", algebra.label
        else:
            self.source = {"family": "family",
                           "type": "classType"}[catalogue.source]
            self.ident = catalogue.n
        self.params = list(algebra.params)
        self.weight = weight
        self.mode = mode
        self.rows = [tuple(r) for r in rows]
        self.euler = sum((-1) ** m * dim for m, dim, _, _ in self.rows)
        self.specialization = dict(specialization) if specialization else None
        self.routes = dict(routes) if routes else {}

    def column(self, name):
        pos = {"m": 0, "dim": 1, "ker": 2, "betti": 3}[name]
        return [r[pos] for r in self.rows]

    def to_json(self):
        mode = {"variant": self.mode.variant}
        if isinstance(self.mode, Randomized):
            mode["seed"] = self.mode.seed
            mode["trials"] = self.mode.trials
        algebra = {"source": self.source, "id": self.ident}
        if self.params:
            algebra["params"] = self.params
        out = {
            "kind": self.kind.variant,
            "algebra": algebra,
            "weight": self.weight,
            "mode": mode,
            "rows": [{"m": m, "dim": d, "ker": k, "betti": b}
                     for m, d, k, b in self.rows],
            "euler": self.euler,
        }
        spec = self.specialization
        if spec is None and isinstance(self.mode, Specialized):
            spec = self.mode.assignment
        if spec:
            out["specialization"] = {k: str(Fraction(v))
                                     for k, v in sorted(spec.items())}
        return out

    def to_csv(self):
        lines = ["m,dim,ker,betti"]
        for m, d, k, b in self.rows:
            lines.append(f"{m},{d},{k},{b}")
        return "\n".join(lines) + "\n"

    def to_table(self):
        """Plain table in the row layout of the published tables."""
        head = f"{self.kind.variant} weight {self.weight} {self.algebra_label}"
        labels = ("m", "SpaD", "KerD", "Bett")
        cols = [[str(x) for x in self.column(name)]
                for name in ("m", "dim", "ker", "betti")]
        width = max((len(s) for col in cols for s in col), default=1)
        lines = [head]
        for label, col in zip(labels, cols):
            cells = " ".join(s.rjust(width) for s in col)
            lines.append(f"{label:>4} : {cells}")
        return "\n".join(lines) + "\n"


def _scan_cap(weight):
    return 4 + abs(weight) + 1


def homology_report(kind, weight, algebra, mode=None, specialization=None):
    """Betti table of one weighted complex under the given rank mode.

    Every rank comes from _ranks.  The report's `routes` say for each m
    how the rank of d_m was obtained: `exact` (an exact integer
    elimination of a matrix without parameters or at a Specialized
    point, or a map into the zero space), `squeeze`, `cycles`,
    `bareiss`, or `sampled` (a randomized lower bound, not proven).
    """
    kind = _as_kind(kind)
    if mode is None:
        mode = Randomized()
    if specialization:
        algebra = algebra.specialize(specialization)
    builder = _BoundaryBuilder(algebra, kind)
    dims = {m: chain_basis(kind, weight, m).dimension
            for m in range(-1, _scan_cap(weight) + 1)}
    matrices = {m: builder.boundary(weight, m) for m, dim in dims.items()
                if m >= 0 and dim and dims[m - 1]}
    ranks, routes = _ranks(matrices, mode, algebra)
    rows = []
    for m, dim in dims.items():
        if m < 0 or dim == 0:
            continue
        ker = dim - ranks.get(m, 0)
        rows.append((m, dim, ker, ker - ranks.get(m + 1, 0)))
    # a d_m into the zero space has rank 0 exactly
    routes = {m: routes.get(m, "exact") for m, _, _, _ in rows}
    return BettiReport(kind, algebra, weight, mode, rows,
                       specialization=specialization, routes=routes)


def _ranks(matrices, mode, algebra):
    """({m: rank of d_m}, {m: route}) for the raw `matrices` under
    `mode`, from a proven lower bound `low` and upper bound `high` of
    each rank, tightened until they meet.

    1. `low` is trial 1 of the mode's sampling, Randomized() standing in
       for SymbolicGeneric: a rank mod p at a point where no denominator
       vanishes is a lower bound of the generic rank, and it is exact
       for a d_m without parameters and at a Specialized point.  `high`
       starts at min(rows, cols).
    2. Over a Lie algebra, d_m d_{m+1} = 0 bounds r_m by dim C_m -
       r_{m+1} and dim C_{m-1} - r_{m-1} (the squeeze); it tightens
       d_{m-1}, d_m and d_{m+1} again whenever low[m] rises.
    3. Randomized: each rank still open runs the mode's other trials in
       one call, so its points are drawn once; what stays open is
       `sampled`.
    4. SymbolicGeneric: over a Lie algebra, constant cycles V (d_m·V = 0
       identically) give r_m <= dim C_m - rank[d_{m+1} | V], and
       constant cocycles U (Uᵀ·d_m = 0) give r_m <= dim C_{m-1} -
       rank[d_{m-1}ᵀ | U], each rank taken mod p at one point as a lower
       bound.  Then Bareiss ranks each d_m not yet proven, smallest
       first.
    """
    nonzero = algebra.nonzero
    symbolic = isinstance(mode, SymbolicGeneric)
    sampling = Randomized() if symbolic else mode
    low = {m: matrix_rank(M, sampling, nonzero, range(1))[0]
           for m, M in matrices.items()}
    routes = {m: "exact" for m, M in matrices.items()
              if not M.parameters() or isinstance(mode, Specialized)}
    high = {m: low[m] if m in routes else min(M.rows, M.cols)
            for m, M in matrices.items()}
    lie = len(routes) < len(matrices) and algebra.is_lie()

    def tighten(m, bound, route):
        high[m] = min(high[m], bound)
        if low[m] == high[m] and m not in routes:
            routes[m] = route

    def squeeze(around):
        for m in around:
            if lie and m in matrices:
                M = matrices[m]
                tighten(m, min(M.cols - low.get(m + 1, 0),
                               M.rows - low.get(m - 1, 0)), "squeeze")

    squeeze(matrices)
    if isinstance(mode, Randomized) and mode.trials > 1:
        for m, M in matrices.items():
            if low[m] < high[m]:
                r = matrix_rank(M, mode, nonzero, range(1, mode.trials))[0]
                low[m] = max(low[m], r)
                squeeze((m - 1, m, m + 1))
    for m in matrices:
        for transpose in (False, True):
            if symbolic and lie and low[m] < high[m]:
                tighten(m, _certificate_bound(matrices, m, nonzero,
                                              transpose), "cycles")
    for m in sorted(matrices, key=lambda m: matrices[m].rows *
                    matrices[m].cols):
        if not symbolic or m in routes:
            continue
        r = matrix_rank(matrices[m], mode)[0]
        assert low[m] <= r <= high[m], (m, low[m], r, high[m])
        low[m] = high[m] = r
        routes[m] = "bareiss"
        squeeze((m - 1, m + 1))
    return low, {m: routes.get(m, "sampled") for m in matrices}


def _certificate_bound(matrices, m, nonzero, transpose):
    """The bound on the generic rank of d_m from its constant cycles
    (cocycles when `transpose`) and d_{m+1} (d_{m-1}ᵀ)."""
    M = matrices[m]
    dim = M.rows if transpose else M.cols
    vectors = constant_kernel(M, transpose)
    if not vectors:
        return dim
    N = matrices.get(m - 1 if transpose else m + 1)
    if N is None:
        return dim - len(vectors)
    r = certificate_rank(N, vectors, nonzero, transpose)
    return dim if r is None else dim - r


def strata_report(kind, weight, m, algebra, assignment):
    """(rank, kernel_dim) of one boundary matrix at a full specialization;
    raises DegenerateDenominator where a denominator vanishes."""
    M = _BoundaryBuilder(algebra, kind).boundary(weight, m)
    mode = Specialized(assignment)
    return matrix_rank(M, mode, nonzero=algebra.nonzero)
