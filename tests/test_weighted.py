"""Weighted chain complexes: bases, boundaries, and Betti reports.

The generic-table values frozen here for the tangent and cotangent
complexes are the published reference rows; the extended-complex tests
pin dimensions, structural identities and the computed generic rows; the
published kernel rows for that complex differ, and the acceptance suite
(criterion 02) checks why.
"""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelhomology import exact, weighted
from engelhomology.exact import (
    DegenerateDenominator,
    MissingParameter,
    ParamPolynomial,
    Randomized,
    Specialized,
    SymbolicGeneric,
    TensorMatrix,
    common_denominator,
    matrix_rank,
)
from engelhomology.liealg import LieAlgebra4, class_type, family
from engelhomology.superalg import FORM, MULTIVECTOR
from engelhomology.weighted import (
    COTANGENT,
    EXTENDED,
    TANGENT,
    ComplexKind,
    _BoundaryBuilder,
    _letter_bracket,
    _scan_cap,
    boundary_matrix,
    chain_basis,
    enumerate_signatures,
    homology_report,
    strata_report,
)

FAMILIES = {n: family(n) for n in range(1, 7)}


# ---------------------------------------------------------------------------
# letter alphabets and signatures


def test_kind_alphabets():
    tan = ComplexKind(TANGENT).components()
    assert [(c.species, c.degree) for c in tan] == \
        [(MULTIVECTOR, a) for a in (1, 2, 3, 4)]
    cot = ComplexKind(COTANGENT).components()
    assert [(c.species, c.degree) for c in cot] == \
        [(FORM, p) for p in (0, 1, 2, 3, 4)]
    ext = ComplexKind(EXTENDED).components()
    assert [(c.species, c.degree) for c in ext] == \
        [(FORM, p) for p in (0, 1, 2, 3, 4)] + [(MULTIVECTOR, 1)]
    # components sort as (species, degree), in the order words use
    for comps in (tan, cot, ext):
        assert list(comps) == sorted(comps)
    with pytest.raises(ValueError):
        ComplexKind("normal")


def _occ(occupancy):
    return {(comp.species, comp.degree): k for comp, k in occupancy}


def test_signatures_cotangent_minus5_m3():
    sigs = enumerate_signatures(COTANGENT, -5, 3)
    assert [_occ(s) for s in sigs] == [
        {(FORM, 0): 1, (FORM, 1): 2},
        {(FORM, 0): 2, (FORM, 2): 1},
    ]
    assert chain_basis(COTANGENT, -5, 3).dimension == 12


def test_signatures_tangent_weight0():
    for m in range(5):
        sigs = enumerate_signatures(TANGENT, 0, m)
        if m == 0:
            # a single empty word: the scalar chain space
            assert sigs == [()]
        else:
            assert [_occ(s) for s in sigs] == [{(MULTIVECTOR, 1): m}]
    assert enumerate_signatures(TANGENT, 0, 5) == []


def test_signatures_cotangent_nonnegative_weight_empty():
    assert enumerate_signatures(COTANGENT, 0, 1) == []
    assert chain_basis(COTANGENT, 0, 1).dimension == 0


# frozen chain dimensions, indexed by (kind, weight) -> {m: dim}
CHAIN_DIMS = {
    (TANGENT, 0): {0: 1, 1: 4, 2: 6, 3: 4, 4: 1},
    (TANGENT, 1): {1: 6, 2: 24, 3: 36, 4: 24, 5: 6},
    (TANGENT, 2): {1: 4, 2: 37, 3: 108, 4: 142, 5: 88, 6: 21},
    (COTANGENT, -5): {1: 1, 2: 28, 3: 12, 4: 4, 5: 1},
    (COTANGENT, -6): {2: 38, 3: 32, 4: 12, 5: 4, 6: 1},
    (COTANGENT, -7): {2: 28, 3: 74, 4: 32, 5: 12, 6: 4, 7: 1},
    (EXTENDED, -2): {1: 4, 2: 17, 3: 28, 4: 22, 5: 8, 6: 1},
    (EXTENDED, -3): {1: 6, 2: 28, 3: 53, 4: 52, 5: 28, 6: 8, 7: 1},
}


@pytest.mark.parametrize("kind,weight", sorted(CHAIN_DIMS, key=str))
def test_chain_dimensions(kind, weight):
    want = CHAIN_DIMS[(kind, weight)]
    got = {}
    for m in range(0, max(want) + 2):
        dim = chain_basis(kind, weight, m).dimension
        if dim:
            got[m] = dim
    assert got == want


def test_basis_words_index_roundtrip():
    basis = chain_basis(EXTENDED, -2, 4)
    # one basis per (variant, weight, m), however the kind is named
    assert chain_basis(ComplexKind(EXTENDED), -2, 4) is basis
    assert chain_basis("Extended", -2, 4) is basis
    assert chain_basis(EXTENDED, -2, 3) is not basis
    assert len(basis.words) == basis.dimension == 22
    for pos, word in enumerate(basis.words):
        assert basis.index[word] == pos
    # every word respects the signature weight
    for word in basis.words:
        assert sum(letter[0].grade for letter in word) == -2
        assert len(word) == 4
    # letters sort by themselves: every word of the published chain spaces
    # is sorted
    for kind, weight in PUBLISHED:
        for m in range(_scan_cap(weight) + 1):
            for word in chain_basis(kind, weight, m).words:
                assert word == tuple(sorted(word)), (kind, weight, word)


# ---------------------------------------------------------------------------
# boundary structure


def _columns(M):
    """A TensorMatrix as {column: {row: ParamPolynomial}}; cells with
    the same form share one entry object."""
    values = M.polynomials()
    columns = {}
    for row, col, f in M.entries.tolist():
        columns.setdefault(col, {})[row] = values[f]
    return columns


def _cells(M):
    """A TensorMatrix as {(row, column): ParamPolynomial}."""
    return {(r, c): v for c, col in _columns(M).items()
            for r, v in col.items()}


def _tensor(rows, cols, cells):
    """The rows × cols TensorMatrix of {(row, column): entry} cells."""
    return TensorMatrix.from_rows([[cells.get((r, c), 0)
                                    for c in range(cols)]
                                   for r in range(rows)])


def _compose_is_zero(g, kind, weight, m):
    """d_m after d_{m+1} vanishes entrywise at the fraction level."""
    builder = _BoundaryBuilder(g, kind)
    hi = _columns(builder.boundary(weight, m + 1))
    lo = _columns(builder.boundary(weight, m))
    for col, by_mid in hi.items():
        acc = {}
        for mid, v in by_mid.items():
            for row, w in lo.get(mid, {}).items():
                cur = acc.get(row)
                prod = v * w
                acc[row] = prod if cur is None else cur + prod
        for row, v in acc.items():
            if not v.is_zero():
                return False
    return True


@pytest.mark.parametrize("kind,weight,fam", [
    (TANGENT, 0, 2),
    (TANGENT, 2, 5),
    (COTANGENT, -5, 1),
    (COTANGENT, -6, 6),
    (EXTENDED, -2, 1),
    (EXTENDED, -3, 4),
])
def test_boundary_squares_to_zero(kind, weight, fam):
    g = FAMILIES[fam]
    top = max(CHAIN_DIMS[(kind, weight)])
    for m in range(1, top):
        assert _compose_is_zero(g, kind, weight, m), (kind, weight, fam, m)


def _classical_ce_columns(g, k):
    """Independent oracle: the textbook Lie-algebra boundary on Λ^k g,
    d(x_1...x_k) = sum_{s<t} (-1)^{s+t} [x_s,x_t] ^ rest."""
    from itertools import combinations
    source = list(combinations(range(1, 5), k))
    target = {idx: pos for pos, idx in
              enumerate(combinations(range(1, 5), k - 1))}
    columns = {}
    for col, idxs in enumerate(source):
        acc = {}
        for s in range(k):
            for t in range(s + 1, k):
                rest = idxs[:s] + idxs[s + 1:t] + idxs[t + 1:]
                w = g.bracket_basis(idxs[s], idxs[t])
                for c in range(1, 5):
                    coeff = w.coeff(c)
                    if coeff.is_zero():
                        continue
                    if c in rest:
                        continue
                    merged = sorted(rest + (c,))
                    flips = sum(1 for r in rest if r < c)
                    sign = (-1) ** (s + t + flips)
                    row = target[tuple(merged)]
                    v = coeff * sign
                    cur = acc.get(row)
                    acc[row] = v if cur is None else cur + v
        entries = {r: v for r, v in acc.items() if not v.is_zero()}
        if entries:
            columns[col] = entries
    return columns


@pytest.mark.parametrize("fam", list(range(1, 7)))
def test_weight0_tangent_equals_classical_oracle(fam):
    g = FAMILIES[fam]
    builder = _BoundaryBuilder(g, TANGENT)
    for m in range(2, 5):
        got = _columns(builder.boundary(0, m))
        want = _classical_ce_columns(g, m)
        assert set(got) == set(want)
        for col in got:
            assert set(got[col]) == set(want[col])
            for row in got[col]:
                assert (got[col][row] - want[col][row]).is_zero(), \
                    (m, col, row)


def _monomial_ratio(q, p):
    """The monomial mu with q = p * mu, or None.  A product with a
    monomial keeps the lex order of terms, so mu is the ratio of the
    leading terms."""
    names = sorted(set(p.parameters()) | set(q.parameters()))

    def lead(x):
        m = max(x.terms, key=lambda m: [dict(m).get(v, 0) for v in names])
        return ParamPolynomial({m: x.terms[m]})

    mu = lead(q) / lead(p)
    return mu if p * mu == q else None


def test_boundary_matrix_denominators_cleared():
    # families 2 and 3 carry C144 in denominators
    with_denominator = 0
    for fam in (2, 3):
        g = FAMILIES[fam]
        for kind, weight in PUBLISHED:
            builder = _BoundaryBuilder(g, kind)
            for m, _, _ in _boundaries(kind, weight):
                where = (fam, kind, weight, m)
                raw = builder.boundary(weight, m)
                M = boundary_matrix(kind, weight, m, g)
                assert M.denominator() == 1, where
                with_denominator += raw.denominator() != 1
                assert (M.rows, M.cols) == (raw.rows, raw.cols), where
                cleared, raw = _columns(M), _columns(raw)
                assert {c: col.keys() for c, col in cleared.items()} == \
                    {c: col.keys() for c, col in raw.items()}, where
                # each column is the raw one times one monomial
                for c, col in cleared.items():
                    ratios = {_monomial_ratio(v, raw[c][r])
                              for r, v in col.items()}
                    assert len(ratios) == 1 and None not in ratios, \
                        (where, c)
    assert with_denominator


# ---------------------------------------------------------------------------
# boundary tensors: the contraction equals the word loop on the algebra


def _sorted_word(letters):
    """Koszul sign and canonical form, or (0, None) when an anticommuting
    letter repeats."""
    arr = list(letters)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            if arr[j - 1][0].word_parity and arr[j][0].word_parity:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b and a[0].word_parity == 1:
            return 0, None
    return sign, tuple(arr)


def _word_columns(g, kind, basis_m, basis_prev):
    """Reference oracle: d_m over the algebra g by the word loop, as
    {column: {row: ParamPolynomial}}, bracketing each letter pair in g
    and insertion-sorting every target word."""
    brackets = {}
    columns = {}
    for col, word in enumerate(basis_m.words):
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
                pair = (word[i], word[j])
                terms = brackets.get(pair)
                if terms is None:
                    terms = brackets[pair] = _letter_bracket(g, kind, *pair)
                for letter, coeff in terms:
                    sign, target = _sorted_word((letter,) + rest)
                    if sign == 0:
                        continue
                    row = basis_prev.index[target]
                    v = coeff * (eps * sign)
                    cur = acc.get(row)
                    acc[row] = v if cur is None else cur + v
        entries = {r: v for r, v in acc.items() if not v.is_zero()}
        if entries:
            columns[col] = entries
    return columns

# the (complex, weight) pairs of the published tables
PUBLISHED = [(TANGENT, w) for w in (0, 1, 2)] + \
    [(COTANGENT, w) for w in (-5, -6, -7)] + [(EXTENDED, w) for w in (-2, -3)]


def _boundaries(kind, weight):
    """(m, basis_m, basis_prev) of every nonzero-shaped d_m a report
    ranks."""
    bases = {m: chain_basis(kind, weight, m)
             for m in range(-1, _scan_cap(weight) + 1)}
    return [(m, bases[m], bases[m - 1]) for m in range(_scan_cap(weight) + 1)
            if bases[m].dimension and bases[m - 1].dimension]


def _assert_contraction_is_word_loop(g, kind, weight):
    builder = _BoundaryBuilder(g, kind)
    for m, basis_m, basis_prev in _boundaries(kind, weight):
        direct = _word_columns(g, ComplexKind(kind), basis_m, basis_prev)
        assert _columns(builder.boundary(weight, m)) == direct, \
            (kind, weight, m)
        assert _cells(builder.matrix(weight, m)) == _cleared(direct), \
            (kind, weight, m)


def _cleared(columns):
    """Reference: {(row, column): entry} of the {column: {row: entry}}
    matrix with each column multiplied by the common denominator of its
    entries."""
    out = {}
    for c, col in columns.items():
        den = common_denominator(col.values())
        out.update({(r, c): v * den for r, v in col.items()})
    return out


def _laurent_term(term):
    c, a, b = term
    return ParamPolynomial.variable("s") ** a * \
        ParamPolynomial.variable("t") ** b * c


_CONSTANT_KEYS = [(i, j, k) for i in range(1, 5) for j in range(i + 1, 5)
                  for k in range(1, 5)]
_LAURENT = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3)
              .filter(bool), st.integers(0, 2), st.integers(-2, 1)),
    min_size=1, max_size=2).map(lambda ts: sum(map(_laurent_term, ts),
                                               ParamPolynomial.zero()))


@settings(max_examples=40, deadline=None)
@given(constants=st.dictionaries(st.sampled_from(_CONSTANT_KEYS), _LAURENT,
                                 max_size=8),
       case=st.sampled_from([(TANGENT, 0), (TANGENT, 1), (COTANGENT, -5),
                             (EXTENDED, -2)]))
def test_contraction_equals_word_loop_on_random_algebras(constants, case):
    # any constants, Lie or not, with t in denominators
    g = LieAlgebra4("random", constants, ("t",))
    _assert_contraction_is_word_loop(g, *case)


def test_contraction_equals_word_loop_on_published_tables():
    count = 0
    for kind, weight in PUBLISHED:
        for fam in FAMILIES.values():
            _assert_contraction_is_word_loop(fam, kind, weight)
            count += len(_boundaries(kind, weight))
    assert count == 222


def test_shared_entries_evaluate_like_distinct_ones():
    p = ParamPolynomial.variable("s") ** 2 / ParamPolynomial.variable("t") + 3
    q = ParamPolynomial.variable("t") - 1
    copy = ParamPolynomial(dict(p.terms))
    cells = {(0, 0): p, (1, 1): p, (0, 2): q, (1, 2): p}
    shared = _tensor(2, 3, cells)
    distinct = _tensor(2, 3, {(0, 0): p, (1, 1): copy, (0, 2): q,
                              (1, 2): ParamPolynomial(dict(p.terms))})
    point = {"s": 7, "t": -3}
    assert np.array_equal(shared.modular(point), distinct.modular(point))
    assert np.array_equal(shared.modular(point),
                          _modular_matrix(cells, (2, 3), point))
    assert shared.rational_rows(point) == distinct.rational_rows(point) == \
        _evaluated_rows(cells, (2, 3), point)
    # one coefficient row per distinct entry, equal entries sharing it
    assert len(shared.polynomials()) == len(distinct.polynomials()) == 2
    assert shared.parameters() == distinct.parameters() == ("s", "t")


def _leaves(x):
    if isinstance(x, tuple):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _published_tensors():
    """Every boundary tensor of the published tables, from the caches."""
    return {(kind, weight, m): weighted._boundary_tensor(ComplexKind(kind),
                                                         weight, m)
            for kind, weight in PUBLISHED
            for m, _, _ in _boundaries(kind, weight)}


def _clear_caches():
    weighted._TENSORS.clear()
    weighted._LETTER_TABLES.clear()
    weighted._BASES.clear()


def test_tensor_cache_is_independent_of_the_algebra():
    g = FAMILIES[2].specialize({"C143": 2, "C144": 3, "C234": 4, "C244": 5})
    rebased = g.change_basis([[1, 1, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 2], [0, 0, 0, 1]])
    algebras = [FAMILIES[1], FAMILIES[2], rebased]
    cases = [(TANGENT, 2), (EXTENDED, -3)]
    runs = []
    tables = []
    before = _published_tensors()
    for order in (algebras, algebras[::-1]):
        _clear_caches()
        got = {}
        for g in order:
            for kind, weight in cases:
                got[(g.label, kind)] = (
                    homology_report(kind, weight, g).rows,
                    [_cells(boundary_matrix(kind, weight, m, g))
                     for m, _, _ in _boundaries(kind, weight)])
        runs.append(got)
        tables.append({variant: dict(table) for variant, table
                       in weighted._LETTER_TABLES.items()})
    assert runs[0] == runs[1]
    assert tables[0] == tables[1]
    # keyed by (variant, weight, m) alone, holding integers alone
    assert {key[:2] for key in weighted._TENSORS} == \
        {("tangent", 2), ("extended", -3)}
    for (variant, weight, m), (rows, cols, F, cells) in \
            weighted._TENSORS.items():
        assert type(weight) is int and type(m) is int
        assert (rows, cols) == (chain_basis(variant, weight, m - 1).dimension,
                                chain_basis(variant, weight, m).dimension)
        assert F.dtype == np.int64 and F.shape[1] == 24
        assert cells.dtype.kind == "i" and cells.shape[1] == 3
    # the letter table: letters and integer forms, nothing of an algebra
    assert set(weighted._LETTER_TABLES) == {"tangent", "extended"}
    for variant, table in weighted._LETTER_TABLES.items():
        alphabet = set(ComplexKind(variant).components())
        for pair, terms in table.items():
            for comp, idx in pair + tuple(letter for letter, _ in terms):
                assert comp in alphabet
                assert all(type(i) is int for i in idx)
            for _, form in terms:
                assert form and all(type(x) is int for x in _leaves(form))
    # rebuilt from empty caches, every tensor is bit-identical
    _clear_caches()
    after = _published_tensors()
    assert after.keys() == before.keys() and len(after) == 37
    for key, (rows, cols, F, cells) in before.items():
        again = after[key]
        assert again is not before[key]
        assert again[:2] == (rows, cols), key
        for old, new in ((F, again[2]), (cells, again[3])):
            assert old.dtype == new.dtype and old.shape == new.shape
            assert old.tobytes() == new.tobytes(), key


# ---------------------------------------------------------------------------
# the numeric modes rank the tensor-backed boundary; the reference is the
# raw contracted matrix, one ParamPolynomial per distinct form

CATALOGUE = list(FAMILIES.values()) + [class_type(n) for n in range(1, 13)]


def _contract(form, constants):
    """Reference: the linear form sum a * c_ijk at the given constants."""
    terms = {}
    for ijk, a in form:
        c = constants.get(ijk)
        if c is not None:
            for mono, x in c.terms.items():
                terms[mono] = terms.get(mono, 0) + a * x
    return ParamPolynomial(terms)


def _raw_cells(g, kind, weight, m):
    """Reference: d_m as {(row, column): entry}, the tensor's forms
    contracted one by one with `_contract`, denominators kept; cells
    with the same form share one entry object."""
    _, _, F, cells = weighted._boundary_tensor(ComplexKind(kind), weight, m)
    values = [_contract([(weighted._CONSTANTS[n], a)
                         for n, a in enumerate(row) if a], g.c)
              for row in F.tolist()]
    return {(row, col): values[f] for row, col, f in cells.tolist()
            if values[f]}


def _raw_matrix(g, kind, weight, m):
    """Reference: the TensorMatrix of _raw_cells."""
    return _tensor(chain_basis(kind, weight, m - 1).dimension,
                   chain_basis(kind, weight, m).dimension,
                   _raw_cells(g, kind, weight, m))


def _distinct_values(cells, evaluate):
    """{id: evaluate(entry)} over the distinct entry objects of `cells`,
    each evaluated once, in the order of the cells."""
    entries = {id(poly): poly for poly in cells.values()}
    return {key: evaluate(poly) for key, poly in entries.items()}


def _modular_matrix(cells, shape, point, p=exact._PRIME):
    """Reference: {(row, column): entry} cells of the given shape mod p
    at an integer point, by ParamPolynomial.evaluate_mod."""
    values = _distinct_values(cells, lambda v: v.evaluate_mod(point, p))
    arr = np.zeros(shape, dtype=np.int64)
    for (r, c), poly in cells.items():
        arr[r, c] = values[id(poly)]
    return arr


def _evaluated_rows(cells, shape, assignment):
    """Reference: {(row, column): entry} cells of the given shape at a
    point as rows of Fractions, by ParamPolynomial.evaluate."""
    values = _distinct_values(cells, lambda v: v.evaluate(assignment))
    rows = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    for (r, c), poly in cells.items():
        rows[r][c] = values[id(poly)]
    return rows


def _rank_and_points(M, mode, nonzero, monkeypatch, trials=None):
    """matrix_rank, and the points at which its mod-p trials evaluate."""
    points = []
    modular = TensorMatrix.modular

    def recording(self, point, *args):
        points.append(dict(point))
        return modular(self, point, *args)

    monkeypatch.setattr(TensorMatrix, "modular", recording)
    try:
        return matrix_rank(M, mode, nonzero, trials), points
    finally:
        monkeypatch.setattr(TensorMatrix, "modular", modular)


def _raises(fn):
    try:
        fn()
    except (MissingParameter, DegenerateDenominator) as exc:
        return type(exc)
    return None


def _assert_tensor_is_raw(g, seed):
    rng = random.Random(seed)
    count = 0
    for kind, weight in PUBLISHED:
        builder = _BoundaryBuilder(g, kind)
        for m, basis_m, basis_prev in _boundaries(kind, weight):
            M = builder.boundary(weight, m)
            raw = _raw_cells(g, kind, weight, m)
            shape = (basis_prev.dimension, basis_m.dimension)
            where = (g.label, kind, weight, m)
            # one entry per nonzero cell, each the raw entry
            assert _cells(M) == raw, where
            assert len(M.entries) == len(raw)
            assert (M.rows, M.cols) == shape
            params = M.parameters()
            assert params == tuple(sorted(
                {v for poly in raw.values() for v in poly.parameters()})), \
                where
            assert M.denominator() == common_denominator(raw.values()), where
            den = M.denominator().parameters()
            for _ in range(2):
                point = {v: rng.choice([1, -1]) * rng.randint(1, 10_000)
                         for v in params}
                assert np.array_equal(M.modular(point),
                                      _modular_matrix(raw, shape, point)), \
                    where
                exact_point = {v: Fraction(rng.randint(-9, 9) or 1,
                                           rng.randint(1, 9))
                               for v in params}
                assert M.rational_rows(exact_point) == \
                    _evaluated_rows(raw, shape, exact_point), where
            # a point without a parameter, or zeroing a denominator
            bad = [{v: 1 for v in params[1:]}] if params else []
            bad += [{v: 0 if v == d else 1 for v in params} for d in den]
            for point in bad:
                for ours, reference in ((M.modular, _modular_matrix),
                                        (M.rational_rows, _evaluated_rows)):
                    got = _raises(lambda: ours(point))
                    assert got is not None, (where, point)
                    assert got is _raises(
                        lambda: reference(raw, shape, point)), (where, point)
            count += 1
    return count


def test_integer_rows_over_their_denominator_are_the_rational_rows():
    rng = random.Random(5)
    for g in FAMILIES.values():
        point = {v: Fraction(rng.randint(1, 9) * rng.choice([1, -1]),
                             rng.randint(1, 9)) for v in g.params}
        for kind, weight in PUBLISHED:
            builder = _BoundaryBuilder(g, kind)
            for m, basis_m, basis_prev in _boundaries(kind, weight):
                M = builder.boundary(weight, m)
                rows, den = M.integer_rows(point)
                where = (g.label, kind, weight, m)
                assert den > 0 and (len(rows), len(rows[0])) == \
                    (basis_prev.dimension, basis_m.dimension), where
                cells = _cells(M)
                values = _distinct_values(cells, lambda v: v.evaluate(point))
                # each nonzero cell is its entry at the point, times den
                assert {(r, c): Fraction(x, den)
                        for r, row in enumerate(rows)
                        for c, x in enumerate(row) if x} == \
                    {cell: values[id(v)] for cell, v in cells.items()
                     if values[id(v)]}, where
                assert all(type(x) is int for row in rows for x in row)
                assert M.rational_rows(point) == \
                    [[Fraction(x, den) for x in row] for row in rows], where


def test_tensor_boundary_equals_the_raw_matrix_on_the_catalogue():
    assert sum(_assert_tensor_is_raw(g, seed)
               for seed, g in enumerate(CATALOGUE)) == 666


def test_tensor_boundary_equals_the_raw_matrix_on_rational_algebras():
    T = [[1, 2, 0, 0], [0, 3, 0, 0], [0, 0, 1, 2], [1, 0, 0, 5]]
    rebased = FAMILIES[3].change_basis(T)
    assert rebased.params == FAMILIES[3].params
    # denominators past int64: the contraction runs in Python integers
    big = FAMILIES[5].specialize({"C142": Fraction(1, 10**10 + 19),
                                  "C143": Fraction(10**9 + 7, 3)},
                                 label="big")
    assert _BoundaryBuilder(big, TANGENT)._constants[0].dtype == object
    # K fits int64, but F·K would not: the bound sends it to Python integers
    wide = FAMILIES[5].specialize({"C142": Fraction(1, 2**61 + 1)},
                                  label="wide")
    K = _BoundaryBuilder(wide, TANGENT)._constants[0]
    assert K.dtype == np.int64 and np.abs(K).max() > 2**61
    for seed, g in enumerate((rebased, big, wide)):
        assert _assert_tensor_is_raw(g, seed) == 37


def test_raw_matrix_ranks_like_the_cleared_one(monkeypatch):
    count = 0
    for g in CATALOGUE:
        nonzero = set(g.nonzero)
        point = {v: Fraction(n + 2, 3) for n, v in enumerate(g.params)}
        for kind, weight in PUBLISHED:
            builder = _BoundaryBuilder(g, kind)
            for m, _, _ in _boundaries(kind, weight):
                raw = builder.boundary(weight, m)
                cleared = builder.matrix(weight, m)
                assert {(r, c) for r, c, _ in raw.entries.tolist()} == \
                    _cells(cleared).keys()
                # the same sample space, hence the same sample points
                assert sorted(set(raw.parameters()) | nonzero) == \
                    sorted(set(cleared.parameters()) | nonzero)
                assert bool(raw.parameters()) == bool(cleared.parameters())
                assert _rank_and_points(raw, Randomized(), g.nonzero,
                                        monkeypatch) == \
                    _rank_and_points(cleared, Randomized(), g.nonzero,
                                     monkeypatch), (g.label, kind, weight, m)
                assert matrix_rank(raw, Specialized(point), g.nonzero) == \
                    matrix_rank(cleared, Specialized(point), g.nonzero)
                count += 1
    assert count == 666


def _undeclared():
    """Family 2's constants, its denominator C144 not declared nonzero."""
    return LieAlgebra4("undeclared", FAMILIES[2].c)


def test_raw_matrix_sampling_skips_a_zero_denominator(monkeypatch):
    # draws from {-1, 0, 1} hit C144 = 0 about every third time; where
    # C144 divides an entry, such a point is drawn again, exactly as for
    # the declared-nonzero family 2, instead of failing to evaluate
    monkeypatch.setattr(exact, "_COEFF_RANGE", (-1, 1))
    g = _undeclared()
    assert g.nonzero == () and FAMILIES[2].nonzero == ("C144",)
    with_denominator = 0
    for kind, weight in ((TANGENT, 1), (COTANGENT, -5), (EXTENDED, -2)):
        builder = _BoundaryBuilder(g, kind)
        declared = _BoundaryBuilder(FAMILIES[2], kind)
        for m, _, _ in _boundaries(kind, weight):
            raw = builder.boundary(weight, m)
            if raw.denominator() == 1:
                continue
            with_denominator += 1
            for seed in range(10):
                got, points = _rank_and_points(raw, Randomized(seed=seed), (),
                                               monkeypatch)
                assert all(p["C144"] for p in points)
                assert (got, points) == _rank_and_points(
                    declared.boundary(weight, m),
                    Randomized(seed=seed), FAMILIES[2].nonzero, monkeypatch)
    assert with_denominator


def test_specialized_zero_denominator_raises():
    g = _undeclared()
    point = {"C143": 1, "C144": 0, "C234": 1, "C244": 1}
    raw = _BoundaryBuilder(g, TANGENT).boundary(1, 2)
    assert "C144" in raw.parameters()
    with pytest.raises(DegenerateDenominator):
        matrix_rank(raw, Specialized(point))
    with pytest.raises(DegenerateDenominator):
        strata_report(TANGENT, 1, 2, g, point)
    with pytest.raises(DegenerateDenominator):
        homology_report(TANGENT, 1, g, Specialized(point))


# ---------------------------------------------------------------------------
# the d^2 = 0 squeeze stops the randomized trials of a proven rank


def _report_points(kind, weight, g, monkeypatch):
    """homology_report, and for each m the points its trials ranked d_m
    at."""
    made = {}
    boundary = _BoundaryBuilder.boundary

    def recording_boundary(self, weight, m):
        M = boundary(self, weight, m)
        made[id(M)] = (m, M)
        return M

    seen = []
    modular = TensorMatrix.modular

    def recording(self, point, *args):
        seen.append((made[id(self)][0], dict(point)))
        return modular(self, point, *args)

    monkeypatch.setattr(_BoundaryBuilder, "boundary", recording_boundary)
    monkeypatch.setattr(TensorMatrix, "modular", recording)
    try:
        rep = homology_report(kind, weight, g)
    finally:
        monkeypatch.setattr(_BoundaryBuilder, "boundary", boundary)
        monkeypatch.setattr(TensorMatrix, "modular", modular)
    points = {}
    for m, point in seen:
        points.setdefault(m, []).append(point)
    return rep, points


def _full_trials(g, kind, weight, monkeypatch):
    """{m: (rank, points)} of every trial loop run to the end, on the raw
    reference matrices."""
    return {m: _rank_and_points(_raw_matrix(g, kind, weight, m),
                                Randomized(), g.nonzero, monkeypatch)
            for m, _, _ in _boundaries(kind, weight)}


def test_squeeze_runs_a_prefix_of_the_trials_at_the_same_points(monkeypatch):
    stopped = 0
    for kind, weight in PUBLISHED:
        for g in FAMILIES.values():
            rep, points = _report_points(kind, weight, g, monkeypatch)
            ranks = {m: dim - ker for m, dim, ker, _ in rep.rows}
            for m, ((rank, _), full) in _full_trials(g, kind, weight,
                                                     monkeypatch).items():
                got = points.get(m, [])
                assert got == full[:len(got)], (g.label, kind, weight, m)
                assert ranks[m] == rank, (g.label, kind, weight, m)
                stopped += len(got) < len(full)
    assert stopped


def test_squeeze_cuts_the_eliminations_of_the_published_tables(monkeypatch):
    count = [0]
    rank_mod_p = exact._rank_mod_p

    def counting(arr, *args):
        count[0] += 1
        return rank_mod_p(arr, *args)

    monkeypatch.setattr(exact, "_rank_mod_p", counting)
    for kind, weight in PUBLISHED:
        for g in FAMILIES.values():
            homology_report(kind, weight, g)
    assert count[0] <= 304


def test_non_lie_algebra_runs_every_trial(monkeypatch):
    # the Jacobi identity fails for s != 0, and without d^2 = 0 no bound
    # is sound: every d_m runs the full trial loop
    constants = {(1, 2, 3): 1, (1, 3, 4): 1,
                 (3, 4, 1): ParamPolynomial.variable("s")}
    g = LieAlgebra4("broken", constants)
    assert not g.is_lie()
    assert not LieAlgebra4("broken", {**constants, (3, 4, 1): 1}).is_lie()
    # its Lie specialization s = 0, checked first, does not stand in for it
    assert g.specialize({"s": 0}).is_lie() and not g.is_lie()
    sampled = 0
    for kind, weight in PUBLISHED:
        rep, points = _report_points(kind, weight, g, monkeypatch)
        ranks = {m: dim - ker for m, dim, ker, _ in rep.rows}
        for m, ((rank, _), full) in _full_trials(g, kind, weight,
                                                 monkeypatch).items():
            assert points.get(m, []) == full, (kind, weight, m)
            assert ranks[m] == rank
            sampled += len(full) > 1
    assert sampled


def test_randomized_draws_grow_linearly_with_the_trials(monkeypatch):
    # a rank left open after trial 1 runs its other trials in one call,
    # which draws each point once: 1 + 50 points for 50 trials, not the
    # 1 + 2 + ... + 50 of one call per trial, each drawing the points
    # before its own again
    drawn = {}
    sample_points = exact._sample_points

    def counting(M, *args):
        for point in sample_points(M, *args):
            drawn[id(M)] = drawn.get(id(M), 0) + 1
            yield point

    monkeypatch.setattr(exact, "_sample_points", counting)
    rep = homology_report(COTANGENT, -6, FAMILIES[1], Randomized(trials=50))
    assert list(rep.routes.values()).count("sampled") == 3
    assert max(drawn.values()) <= 51
    assert sum(drawn.values()) <= 153


# ---------------------------------------------------------------------------
# symbolic ranks: the squeeze, constant (co)cycles, and Bareiss on the rest

# the tables of the benchmark's symbolic workload
SYMBOLIC_TABLES = [(kind, weight, fam)
                   for kind, weight in ((TANGENT, 0), (COTANGENT, -5),
                                        (COTANGENT, -6), (EXTENDED, -2))
                   for fam in range(1, 7)
                   if (kind, weight, fam) not in ((COTANGENT, -6, 2),
                                                  (EXTENDED, -2, 2))]


def test_route_census_of_the_published_tables():
    for mode in (Randomized(), Randomized(trials=1)):
        assert Counter(
            route for kind, weight in PUBLISHED for g in FAMILIES.values()
            for route in homology_report(kind, weight, g, mode).routes.values()
        ) == {"exact": 80, "squeeze": 133, "sampled": 57}
    assert Counter(
        route for kind, weight, fam in SYMBOLIC_TABLES for route in
        homology_report(kind, weight, FAMILIES[fam],
                        SymbolicGeneric()).routes.values()
    ) == {"exact": 45, "squeeze": 49, "cycles": 13, "bareiss": 8}


def test_symbolic_rows_of_the_published_tables_equal_randomized():
    # the full symbolic cross-check: every rank of the 48 tables proven,
    # Bareiss on the 25 that the squeeze and constant (co)cycles leave open
    routes = Counter()
    for kind, weight in PUBLISHED:
        for fam, g in FAMILIES.items():
            rep = homology_report(kind, weight, g, SymbolicGeneric())
            assert rep.rows == homology_report(kind, weight, g).rows, \
                (kind, weight, fam)
            routes.update(rep.routes.values())
    assert routes == {"exact": 80, "squeeze": 133, "cycles": 32,
                      "bareiss": 25}


def _counting_bareiss(monkeypatch):
    calls = []
    bareiss = exact._rank_symbolic

    def counting(M):
        calls.append((type(M), M.rows, M.cols))
        return bareiss(M)

    monkeypatch.setattr(exact, "_rank_symbolic", counting)
    return calls


def test_non_lie_symbolic_runs_bareiss_on_every_rank(monkeypatch):
    g = LieAlgebra4("broken", {(1, 2, 3): 1, (1, 3, 4): 1,
                               (3, 4, 1): ParamPolynomial.variable("s")})
    assert not g.is_lie()
    calls = _counting_bareiss(monkeypatch)
    seen = {"bareiss": 0, "exact": 0}
    for kind, weight in PUBLISHED:
        del calls[:]
        rep = homology_report(kind, weight, g, SymbolicGeneric())
        builder = _BoundaryBuilder(g, kind)
        ranked = [m for m, _, _ in _boundaries(kind, weight)]
        # a d_m with parameters reaches Bareiss; one without is ranked
        # exactly, as in every other mode
        generic = [m for m in ranked
                   if builder.boundary(weight, m).parameters()]
        assert [m for m, route in rep.routes.items()
                if route == "bareiss"] == generic, (kind, weight)
        assert all(rep.routes[m] == "exact" for m in ranked
                   if m not in generic)
        # and the d_m not ranked map into the zero space
        assert set(rep.routes.values()) <= {"bareiss", "exact"}
        assert len(calls) == len(generic)
        # Bareiss ranks the raw boundary, denominators and all
        assert all(call[0] is TensorMatrix for call in calls)
        assert rep.rows == homology_report(kind, weight, g).rows
        seen["bareiss"] += len(generic)
        seen["exact"] += len(ranked) - len(generic)
    assert all(seen.values())


def test_proven_symbolic_ranks_equal_bareiss(monkeypatch):
    seen = {}
    for kind, weight, fam in SYMBOLIC_TABLES:
        g = FAMILIES[fam]
        calls = _counting_bareiss(monkeypatch)
        rep = homology_report(kind, weight, g, SymbolicGeneric())
        assert len(calls) == list(rep.routes.values()).count("bareiss")
        assert all(call[0] is TensorMatrix for call in calls)
        monkeypatch.undo()
        ranks = {m: dim - ker for m, dim, ker, _ in rep.rows}
        builder = _BoundaryBuilder(g, kind)
        for m, _, _ in _boundaries(kind, weight):
            route = rep.routes[m]
            seen[route] = seen.get(route, 0) + 1
            assert ranks[m] == exact._rank_symbolic(
                builder.matrix(weight, m)), (kind, weight, fam, m, route)
    assert {"squeeze", "cycles", "bareiss"} <= seen.keys()
    assert sum(seen.values()) == 93 and seen["bareiss"] <= 8


def test_constant_cycles_and_cocycles_vanish_exactly():
    found = 0
    for kind, weight, fam in SYMBOLIC_TABLES:
        builder = _BoundaryBuilder(FAMILIES[fam], kind)
        for m, _, _ in _boundaries(kind, weight):
            raw = builder.boundary(weight, m)
            d = _columns(raw)
            cycles = exact.constant_kernel(raw)
            cocycles = exact.constant_kernel(raw, transpose=True)
            for v in cycles:
                assert not _times(d, v), (kind, weight, fam, m)
            for u in cocycles:
                assert not any(sum((u[r] * x for r, x in col.items()), 0)
                               for col in d.values()), (kind, weight, fam, m)
            found += len(cycles) + len(cocycles)
            if not raw.entries.size:
                continue
            # a corrupted cycle fails the check
            c = int(raw.entries[0, 1])
            bad = [Fraction(int(i == c)) for i in range(raw.cols)]
            if cycles:
                bad = [x + y for x, y in zip(cycles[0], bad)]
            assert _times(d, bad)
    assert found


def _times(columns, v):
    """Reference: the {column: {row: entry}} matrix times the vector v,
    as {row: nonzero entry}."""
    acc = {}
    for c, col in columns.items():
        for r, x in col.items():
            acc[r] = acc.get(r, 0) + x * v[c]
    return {r: x for r, x in acc.items() if x}


def test_slices_of_python_integer_coefficients():
    M = _BoundaryBuilder(FAMILIES[1], COTANGENT).boundary(-6, 3)
    den = M._denominator
    wide = TensorMatrix(M.rows, M.cols, M.entries,
                        M._coefficients.astype(object) * 2**70,
                        M._monomials, den)
    narrow = M.slices(transpose=True)
    assert M._coefficients.dtype == np.int64 and narrow
    assert wide.slices(transpose=True) == \
        [tuple(x * 2**70 for x in row) for row in narrow]
    assert exact.constant_kernel(wide, transpose=True) == \
        exact.constant_kernel(M, transpose=True)


def test_symbolic_squeeze_needs_no_bareiss_on_family_2_tangent_2(monkeypatch):
    # every Betti number is 0, so the squeeze closes every rank
    calls = _counting_bareiss(monkeypatch)
    g = FAMILIES[2]
    rep = homology_report(TANGENT, 2, g, SymbolicGeneric())
    assert calls == []
    assert rep.rows == homology_report(TANGENT, 2, g).rows
    assert set(rep.routes.values()) <= {"exact", "squeeze"}


def test_numeric_routes():
    # tangent 1 of family 2 has every Betti number 0: the squeeze proves
    # each sampled rank; cotangent -6 of family 1 has ranks it leaves open
    rep = homology_report(TANGENT, 1, FAMILIES[2])
    assert set(rep.routes) == {m for m, _, _, _ in rep.rows}
    assert set(rep.routes.values()) == {"exact", "squeeze"}
    g = FAMILIES[1]
    rep = homology_report(COTANGENT, -6, g)
    assert {"exact", "squeeze", "sampled"} >= set(rep.routes.values()) \
        >= {"exact", "sampled"}
    point = {p: 2 for p in g.params}
    rep = homology_report(COTANGENT, -6, g, Specialized(point))
    assert set(rep.routes.values()) == {"exact"}


# ---------------------------------------------------------------------------
# generic reports: the frozen reference tables

TANGENT_TABLE = {
    (0, 1): ([1, 4, 4, 1, 0], [1, 2, 1, 0, 0]),
    (0, 2): ([1, 4, 3, 1, 0], [1, 1, 0, 0, 0]),
    (0, 3): ([1, 4, 3, 1, 0], [1, 1, 0, 0, 0]),
    (0, 4): ([1, 4, 3, 1, 0], [1, 1, 0, 0, 0]),
    (0, 5): ([1, 4, 3, 1, 1], [1, 1, 0, 1, 1]),
    (0, 6): ([1, 4, 3, 1, 1], [1, 1, 0, 1, 1]),
    (1, 1): ([6, 19, 19, 6, 0], [1, 2, 1, 0, 0]),
    (1, 2): ([6, 18, 18, 6, 0], [0, 0, 0, 0, 0]),
    (1, 3): ([6, 18, 18, 6, 0], [0, 0, 0, 0, 0]),
    (1, 4): ([6, 18, 18, 6, 0], [0, 0, 0, 0, 0]),
    (1, 5): ([6, 18, 18, 6, 0], [0, 0, 0, 0, 0]),
    (1, 6): ([6, 18, 18, 6, 0], [0, 0, 0, 0, 0]),
    (2, 1): ([4, 33, 76, 68, 21, 0], [0, 1, 2, 1, 0, 0]),
    (2, 2): ([4, 33, 75, 67, 21, 0], [0, 0, 0, 0, 0, 0]),
    (2, 3): ([4, 33, 75, 67, 21, 0], [0, 0, 0, 0, 0, 0]),
    (2, 4): ([4, 33, 75, 67, 21, 0], [0, 0, 0, 0, 0, 0]),
    (2, 5): ([4, 33, 77, 67, 23, 1], [0, 2, 2, 2, 3, 1]),
    (2, 6): ([4, 33, 77, 67, 21, 2], [0, 2, 2, 0, 2, 2]),
}

COTANGENT_TABLE = {
    (-6, 1): ([38, 12, 4, 2, 1], [18, 4, 2, 2, 1]),
    (-6, 2): ([38, 10, 3, 1, 1], [16, 1, 0, 1, 1]),
    (-6, 3): ([38, 12, 3, 1, 1], [18, 3, 0, 1, 1]),
    (-6, 4): ([38, 10, 3, 1, 1], [16, 1, 0, 1, 1]),
    (-6, 5): ([38, 13, 3, 1, 1], [19, 4, 0, 1, 1]),
    (-6, 6): ([38, 11, 3, 1, 1], [17, 2, 0, 1, 1]),
    (-7, 1): ([28, 50, 10, 4, 2, 1], [4, 28, 2, 2, 2, 1]),
    (-7, 2): ([28, 50, 9, 3, 1, 1], [4, 27, 0, 0, 1, 1]),
    (-7, 3): ([28, 52, 9, 3, 1, 1], [6, 29, 0, 0, 1, 1]),
    (-7, 4): ([28, 50, 9, 3, 1, 1], [4, 27, 0, 0, 1, 1]),
    (-7, 5): ([28, 53, 10, 3, 1, 1], [7, 31, 1, 0, 1, 1]),
    (-7, 6): ([28, 53, 10, 3, 1, 1], [7, 31, 1, 0, 1, 1]),
}


@pytest.mark.parametrize("weight,fam", sorted(TANGENT_TABLE))
def test_tangent_generic_tables(weight, fam):
    rep = homology_report(TANGENT, weight, FAMILIES[fam])
    ker, bett = TANGENT_TABLE[(weight, fam)]
    assert rep.column("dim") == list(CHAIN_DIMS[(TANGENT, weight)].values())
    assert rep.column("ker") == ker
    assert rep.column("betti") == bett
    assert rep.euler == 0


@pytest.mark.parametrize("weight,fam", sorted(COTANGENT_TABLE))
def test_cotangent_generic_tables(weight, fam):
    rep = homology_report(COTANGENT, weight, FAMILIES[fam])
    ker, bett = COTANGENT_TABLE[(weight, fam)]
    assert rep.column("ker") == ker
    assert rep.column("betti") == bett
    if weight == -6:
        assert rep.euler == 15


def test_weight_minus5_classifies_into_three_classes():
    betts = {}
    for fam in range(1, 7):
        rep = homology_report(COTANGENT, -5, FAMILIES[fam])
        assert rep.column("dim") == [1, 28, 12, 4, 1]
        betts[fam] = tuple(rep.column("betti"))
    classes = {}
    for fam, bett in betts.items():
        classes.setdefault(bett, []).append(fam)
    assert sorted(sorted(v) for v in classes.values()) == \
        [[1], [2, 3, 4], [5, 6]]


def test_strata_cotangent_minus5_m2():
    g1 = FAMILIES[1]
    base = {p: Fraction(1) for p in g1.params}
    assert strata_report(COTANGENT, -5, 2, g1,
                         {**base, "C144": 0, "C244": 0}) == (0, 28)
    g4 = FAMILIES[4]
    base4 = {p: Fraction(1) for p in g4.params}
    assert strata_report(COTANGENT, -5, 2, g4, {**base4, "C244": 1}) == (1, 27)
    assert strata_report(COTANGENT, -5, 2, g4, {**base4, "C244": 0}) == (0, 28)


# ---------------------------------------------------------------------------
# extended complex: structural facts

EXTENDED_GENERIC = {
    # regression pins computed by this implementation (semidirect-product
    # bracket per the module contract); these are not the published rows
    (-2, 1): ([4, 13, 16, 8, 1, 0], [0, 1, 2, 1, 0, 0]),
    (-2, 2): ([4, 13, 17, 7, 1, 0], [0, 2, 2, 0, 0, 0]),
    (-2, 3): ([4, 13, 18, 7, 1, 0], [0, 3, 3, 0, 0, 0]),
    (-2, 4): ([4, 13, 17, 7, 1, 0], [0, 2, 2, 0, 0, 0]),
    (-2, 5): ([4, 13, 18, 7, 2, 1], [0, 3, 3, 1, 2, 1]),
    (-2, 6): ([4, 14, 16, 7, 2, 1], [1, 2, 1, 1, 2, 1]),
    (-3, 1): ([6, 22, 33, 24, 8, 1, 0], [0, 2, 5, 4, 1, 0, 0]),
    (-3, 2): ([6, 22, 31, 23, 7, 1, 0], [0, 0, 2, 2, 0, 0, 0]),
    (-3, 3): ([6, 22, 31, 24, 7, 1, 0], [0, 0, 3, 3, 0, 0, 0]),
    (-3, 4): ([6, 22, 31, 23, 7, 1, 0], [0, 0, 2, 2, 0, 0, 0]),
    (-3, 5): ([6, 22, 31, 24, 7, 2, 1], [0, 0, 3, 3, 1, 2, 1]),
    (-3, 6): ([6, 22, 32, 22, 7, 2, 1], [0, 1, 2, 1, 1, 2, 1]),
}


@pytest.mark.parametrize("weight,fam", sorted(EXTENDED_GENERIC))
def test_extended_generic_regression(weight, fam):
    rep = homology_report(EXTENDED, weight, FAMILIES[fam])
    ker, bett = EXTENDED_GENERIC[(weight, fam)]
    assert rep.column("dim") == list(CHAIN_DIMS[(EXTENDED, weight)].values())
    assert rep.column("ker") == ker
    assert rep.column("betti") == bett


def test_euler_identity_every_report():
    for kind, weight in CHAIN_DIMS:
        rep = homology_report(kind, weight, FAMILIES[1])
        alt_dim = sum((-1) ** m * d for m, d, _, _ in rep.rows)
        alt_bett = sum((-1) ** m * b for m, _, _, b in rep.rows)
        assert rep.euler == alt_dim == alt_bett


# ---------------------------------------------------------------------------
# isomorphism invariance


def _random_invertible(rng):
    from engelhomology.exact import inverse
    while True:
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
             for _ in range(4)]
        try:
            inverse(T)
        except ValueError:
            continue
        return T


def test_reports_invariant_under_basis_change():
    rng = random.Random(7)
    g = FAMILIES[3].specialize(
        {p: Fraction(2) for p in FAMILIES[3].params}, label="spec3")
    base = {}
    for kind, weight in ((TANGENT, 1), (COTANGENT, -5), (EXTENDED, -2)):
        base[(kind, weight)] = homology_report(kind, weight, g).rows
    for _ in range(3):
        h = g.change_basis(_random_invertible(rng))
        for (kind, weight), rows in base.items():
            assert homology_report(kind, weight, h).rows == rows


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rank_modes_agree():
    g = FAMILIES[1]
    M = boundary_matrix(COTANGENT, -5, 2, g)
    r_sym, k_sym = matrix_rank(M, SymbolicGeneric(), nonzero=g.nonzero)
    r_rand, k_rand = matrix_rank(M, Randomized(), nonzero=g.nonzero)
    assert (r_sym, k_sym) == (r_rand, k_rand) == (1, 27)


def test_report_json_schema():
    rep = homology_report(TANGENT, 0, FAMILIES[1])
    doc = rep.to_json()
    assert doc["kind"] == "tangent"
    assert doc["algebra"]["source"] == "family"
    assert doc["algebra"]["id"] == 1
    assert doc["weight"] == 0
    assert doc["mode"]["variant"] == "randomized"
    assert doc["mode"]["seed"] == 1729 and doc["mode"]["trials"] == 3
    assert doc["rows"][0] == {"m": 0, "dim": 1, "ker": 1, "betti": 1}
    assert doc["euler"] == 0
    assert "specialization" not in doc


def test_report_json_specialization():
    g = FAMILIES[4]
    assign = {p: Fraction(1) for p in g.params}
    rep = homology_report(COTANGENT, -5, g, Specialized(assign),
                          specialization=assign)
    doc = rep.to_json()
    assert doc["mode"]["variant"] == "specialized"
    assert doc["specialization"]["C244"] == "1"


def test_report_csv_and_table_layout():
    rep = homology_report(TANGENT, 0, FAMILIES[1])
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "m,dim,ker,betti"
    assert lines[1] == "0,1,1,1"
    assert len(lines) == 6
    table = rep.to_table()
    for label in ("m", "SpaD", "KerD", "Bett"):
        assert f"{label:>4} :" in table
    assert "1 4 6 4 1" in " ".join(table.split())
