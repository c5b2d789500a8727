"""Acceptance suite: one test per numbered criterion.

Each test either reproduces a block of the published reference tables
exactly or checks a structural property end to end.  conftest prints a
PASS/FAIL line per criterion after the run.  Where the mathematics
refutes a published cell or claim, the published literal stays verbatim
and the test checks, by machine, why it is wrong: two cotangent-table
typos (03), the extended-complex ranks (02), the type-9 closed form and
the type-5 witness plane (07), the family-3 characteristic plane (08),
and the separation of families 2 and 4, which are isomorphic (10).
"""

import itertools
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from engelhomology.engel import (
    CORRECTED_FORMULAS,
    PlanePair,
    WITNESS_CORRECTIONS,
    WITNESSES,
    characteristic_foliation,
    elc,
    elc_formula_check,
    elc_formula_report,
    foliation_containment,
    transcribed_formula,
    verify_witness,
)
from engelhomology.exact import (
    ParamPolynomial,
    Randomized,
    Specialized,
    TensorMatrix,
    inverse,
    matrix_rank,
    parse_polynomial,
)
from engelhomology.liealg import Vector4, class_type, family
from engelhomology.superalg import (
    FORM,
    MULTIVECTOR,
    GradedComponent,
    GradedElement,
    ce_differential,
    extended_bracket,
    form_bracket,
    interior_product,
    lie_derivative,
    schouten_bracket,
)
from engelhomology.weighted import (
    COTANGENT,
    EXTENDED,
    TANGENT,
    _BoundaryBuilder,
    _cleared_matrix,
    boundary_matrix,
    chain_basis,
    homology_report,
    strata_report,
)

FAMILIES = {n: family(n) for n in range(1, 7)}

TABULATED = (
    (TANGENT, (0, 1, 2)),
    (COTANGENT, (-5, -6, -7)),
    (EXTENDED, (-2, -3)),
)

_ROWS_CACHE = {}


def _generic_rows(kind, weight, fam):
    """Generic report rows (m, dim, ker, betti), Randomized(1729, 3)."""
    key = (kind, weight, fam)
    if key not in _ROWS_CACHE:
        rep = homology_report(kind, weight, FAMILIES[fam],
                              Randomized(seed=1729, trials=3))
        _ROWS_CACHE[key] = tuple(tuple(r) for r in rep.rows)
    return _ROWS_CACHE[key]


def _table_diffs(kind, weight, ms, printed_dims, printed_rows):
    """Cell-by-cell diff of the computed reports against a printed table."""
    lines = []
    dims = [chain_basis(kind, weight, m).dimension for m in ms]
    for m, want, got in zip(ms, printed_dims, dims):
        if want != got:
            lines.append(f"{kind} weight {weight} SpaD m={m}: "
                         f"printed {want}, computed {got}")
    for fam in range(1, 7):
        rows = _generic_rows(kind, weight, fam)
        assert [r[0] for r in rows] == list(ms), (kind, weight, fam)
        want_k, want_b = printed_rows[(weight, fam)]
        for (m, _, ker, bett), wk, wb in zip(rows, want_k, want_b):
            if ker != wk:
                lines.append(f"{kind} weight {weight} family-{fam} KerD "
                             f"m={m}: printed {wk}, computed {ker}")
            if bett != wb:
                lines.append(f"{kind} weight {weight} family-{fam} Bett "
                             f"m={m}: printed {wb}, computed {bett}")
    return lines


# ---------------------------------------------------------------------------
# published reference tables, transcribed cell for cell


TANGENT_MS = {0: list(range(0, 5)), 1: list(range(1, 6)), 2: list(range(1, 7))}
TANGENT_DIMS = {
    0: [1, 4, 6, 4, 1],
    1: [6, 24, 36, 24, 6],
    2: [4, 37, 108, 142, 88, 21],
}
TANGENT_ROWS = {
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

COTANGENT_MS = {-6: list(range(2, 7)), -7: list(range(2, 8))}
# the -7 SpaD row prints 76 at m=3; its own KerD/Bett rows force 74
COTANGENT_DIMS = {-6: [38, 32, 12, 4, 1], -7: [28, 76, 32, 12, 4, 1]}
COTANGENT_ROWS = {
    (-6, 1): ([38, 12, 4, 2, 1], [18, 4, 2, 2, 1]),
    (-6, 2): ([38, 10, 3, 1, 1], [16, 1, 0, 1, 1]),
    (-6, 3): ([38, 12, 3, 1, 1], [18, 3, 0, 1, 1]),
    (-6, 4): ([38, 10, 3, 1, 1], [16, 1, 0, 1, 1]),
    (-6, 5): ([6, 13, 3, 1, 1], [19, 4, 0, 1, 1]),  # KerD m=2 prints "6"
    (-6, 6): ([38, 11, 3, 1, 1], [17, 2, 0, 1, 1]),
    (-7, 1): ([28, 50, 10, 4, 2, 1], [4, 28, 2, 2, 2, 1]),
    (-7, 2): ([28, 50, 9, 3, 1, 1], [4, 27, 0, 0, 1, 1]),
    (-7, 3): ([28, 52, 9, 3, 1, 1], [6, 29, 0, 0, 1, 1]),
    (-7, 4): ([28, 50, 9, 3, 1, 1], [4, 27, 0, 0, 1, 1]),
    (-7, 5): ([28, 53, 10, 3, 1, 1], [7, 31, 1, 0, 1, 1]),
    (-7, 6): ([28, 53, 10, 3, 1, 1], [7, 31, 1, 0, 1, 1]),
}

EXTENDED_MS = {-2: list(range(1, 7)), -3: list(range(1, 8))}
EXTENDED_DIMS = {-2: [4, 17, 28, 22, 8, 1], -3: [6, 28, 53, 52, 28, 8, 1]}
EXTENDED_ROWS = {
    (-2, 1): ([4, 13, 16, 10, 4, 1], [0, 1, 4, 6, 4, 1]),
    (-2, 2): ([4, 13, 17, 10, 4, 1], [0, 2, 5, 6, 4, 1]),
    (-2, 3): ([4, 13, 18, 10, 4, 1], [0, 3, 6, 6, 4, 1]),
    (-2, 4): ([4, 13, 17, 10, 4, 1], [0, 2, 5, 6, 4, 1]),
    (-2, 5): ([4, 13, 18, 10, 5, 1], [0, 3, 6, 7, 5, 1]),
    (-2, 6): ([4, 14, 16, 10, 5, 1], [1, 2, 4, 7, 5, 1]),
    (-3, 1): ([6, 26, 33, 28, 16, 6, 1], [4, 6, 9, 16, 14, 6, 1]),
    (-3, 2): ([6, 25, 28, 25, 13, 5, 1], [3, 0, 1, 10, 10, 5, 1]),
    (-3, 3): ([6, 25, 30, 25, 13, 5, 1], [3, 2, 3, 10, 10, 5, 1]),
    (-3, 4): ([6, 25, 29, 25, 13, 5, 1], [3, 1, 2, 10, 10, 5, 1]),
    (-3, 5): ([6, 25, 30, 25, 16, 5, 1], [3, 2, 3, 13, 13, 5, 1]),
    (-3, 6): ([6, 25, 29, 25, 16, 5, 1], [3, 1, 2, 13, 13, 5, 1]),
}


# ---------------------------------------------------------------------------
# criteria 1-5: table reproduction


def test_criterion_01_tangent_tables():
    t0 = time.monotonic()
    lines = []
    for weight in (0, 1, 2):
        lines += _table_diffs(TANGENT, weight, TANGENT_MS[weight],
                              TANGENT_DIMS[weight], TANGENT_ROWS)
    elapsed = time.monotonic() - t0
    assert not lines, "\n".join(lines)
    assert elapsed < 60.0, f"tangent tables took {elapsed:.1f}s"


def test_criterion_02_extended_tables():
    for weight, ms in sorted(EXTENDED_MS.items()):
        dims = [chain_basis(EXTENDED, weight, m).dimension for m in ms]
        assert dims == EXTENDED_DIMS[weight], weight

    # (a) the computed rows are those of the complex the README defines:
    # the classical split reproduces them exactly at a seeded point of
    # every family, both Specialized there and generic (a point on a
    # degenerate stratum would show as a lower rank)
    rng = random.Random(2212)
    points = {}
    for fam in range(1, 7):
        extra = ("C144^2 + 4*C143",) if fam == 2 else ()
        points[fam] = _nonzero_specialization(FAMILIES[fam], rng, 97, extra)
        g = FAMILIES[fam].specialize(points[fam])
        for weight in (-2, -3):
            want = _extended_oracle_rows(g, weight)
            got = homology_report(EXTENDED, weight, g, Specialized({})).rows
            assert got == want, (fam, weight, points[fam])
            assert list(_generic_rows(EXTENDED, weight, fam)) == want, \
                (fam, weight, points[fam])

    # (b) the single top word 1...1 y1y2y3y4 has the classical boundary of
    # y1^y2^y3^y4, which vanishes iff tr ad = 0; families 1-4 are not
    # unimodular, so their top KerD is 0, not the printed 1
    for fam in range(1, 7):
        g = FAMILIES[fam]
        unimodular = all(
            sum(g.structure_constant(i, j, j) for j in range(1, 5)).is_zero()
            for i in range(1, 5))
        assert unimodular == (fam in (5, 6)), fam
        assert bool(_classical_ce_columns(g, 4)) != unimodular, fam
        for weight, ms in EXTENDED_MS.items():
            assert chain_basis(EXTENDED, weight, ms[-1]).dimension == 1
            top = boundary_matrix(EXTENDED, weight, ms[-1], g)
            assert (not len(top.entries)) == unimodular, (fam, weight)
            assert _generic_rows(EXTENDED, weight, fam)[-1][2] == \
                int(unimodular)
            assert EXTENDED_ROWS[(weight, fam)][0][-1] == 1

    # (c) the printed weight -3 rows of families 2 and 4 differ, but the
    # two families are isomorphic, so no complex that is invariant under
    # isomorphism can produce both rows
    assert EXTENDED_ROWS[(-3, 2)][0][2] == 28
    assert EXTENDED_ROWS[(-3, 4)][0][2] == 29
    _, y = _iso_2_4(2, points[2])
    image = FAMILIES[4].specialize(y)
    assert homology_report(EXTENDED, -3, image, Specialized({})).rows == \
        homology_report(EXTENDED, -3, FAMILIES[2].specialize(points[2]),
                        Specialized({})).rows
    assert _generic_rows(EXTENDED, -3, 2) == _generic_rows(EXTENDED, -3, 4)

    # (d) the printed weight -2 rows are exactly the abelian algebra's
    # chains Lambda^(m-2) (kernel = homology = the whole space) plus the
    # coadjoint summand: as if the bracket were dropped on 1 1 Lambda g
    for fam in range(1, 7):
        g = FAMILIES[fam].specialize(points[fam])
        ker, bett = [], []
        for m, _, k, b in _ce_rows(g, (1,), 1, EXTENDED_MS[-2]):
            abelian = len(_ce_basis((0,), m - 2))
            ker.append(abelian + k)
            bett.append(abelian + b)
        assert (ker, bett) == EXTENDED_ROWS[(-2, fam)], fam

    # (e) every remaining printed cell that differs, for the record
    lines = []
    for weight in (-2, -3):
        lines += _table_diffs(EXTENDED, weight, EXTENDED_MS[weight],
                              EXTENDED_DIMS[weight], EXTENDED_ROWS)
    for line in lines:
        print("discrepancy:", line)
    print(f"note: {len(lines)} printed extended KerD/Bett cells differ; the "
          "weight -2 rows drop the bracket on the 1 1 Lambda g words, the "
          "top KerD ignores tr ad, and the weight -3 rows of the isomorphic "
          "families 2 and 4 disagree")


def test_criterion_03_cotangent_tables():
    lines = []
    for weight in (-6, -7):
        lines += _table_diffs(COTANGENT, weight, COTANGENT_MS[weight],
                              COTANGENT_DIMS[weight], COTANGENT_ROWS)
    # the flagged cell must compute to 38
    assert _generic_rows(COTANGENT, -6, 5)[0][:3] == (2, 38, 38)
    for line in lines:
        print("discrepancy:", line)
    print("note: the printed KerD/Bett rows themselves force SpaD m=3 "
          "= 74 at weight -7 (family-1: rank3 = 28 - 4 = 24, so dim3 = "
          "50 + 24 = 74)")
    assert lines == [
        "cotangent weight -6 family-5 KerD m=2: printed 6, computed 38",
        "cotangent weight -7 SpaD m=3: printed 76, computed 74",
    ]


def test_criterion_04_weight_minus5_partition():
    dims = [chain_basis(COTANGENT, -5, m).dimension for m in range(1, 6)]
    assert dims == [1, 28, 12, 4, 1]
    groups = {}
    for fam in range(1, 7):
        sig = tuple(r[2:] for r in _generic_rows(COTANGENT, -5, fam))
        groups.setdefault(sig, []).append(fam)
    assert sorted(sorted(v) for v in groups.values()) == \
        [[1], [2, 3, 4], [5, 6]]


def test_criterion_05_rank_strata():
    g1 = FAMILIES[1]
    base1 = {p: Fraction(1) for p in g1.params}
    assert strata_report(COTANGENT, -5, 2, g1,
                         {**base1, "C144": 0, "C244": 0}) == (0, 28)
    g4 = FAMILIES[4]
    base4 = {p: Fraction(1) for p in g4.params}
    assert strata_report(COTANGENT, -5, 2, g4, {**base4, "C244": 1}) == (1, 27)
    assert strata_report(COTANGENT, -5, 2, g4, {**base4, "C244": 0}) == (0, 28)


# ---------------------------------------------------------------------------
# criterion 6: structural property suite


def y(*idx):
    return GradedElement.monomial(GradedComponent(MULTIVECTOR, len(idx)), idx)


def z(*idx):
    return GradedElement.monomial(GradedComponent(FORM, len(idx)), idx)


MULTI_LETTERS = [y(*c) for k in range(5) for c in combinations(range(1, 5), k)]
FORM_LETTERS = [z(*c) for k in range(5) for c in combinations(range(1, 5), k)]
EXT_LETTERS = [y(i) for i in range(1, 5)] + FORM_LETTERS


def _columns(M):
    """A TensorMatrix as {column: {row: ParamPolynomial}}."""
    values = M.polynomials()
    columns = {}
    for row, col, f in M.entries.tolist():
        columns.setdefault(col, {})[row] = values[f]
    return columns


def _tensor(rows, cols, columns):
    """The rows × cols TensorMatrix of {column: {row: entry}}."""
    return TensorMatrix.from_rows([[columns.get(c, {}).get(r, 0)
                                    for c in range(cols)]
                                   for r in range(rows)])


def _compose_entries(cols_hi, cols_lo):
    """Entries of the composite boundary, exact ParamPolynomial arithmetic."""
    out = []
    for col, by_mid in cols_hi.items():
        acc = {}
        for mid, v in by_mid.items():
            for row, w in cols_lo.get(mid, {}).items():
                cur = acc.get(row)
                prod = v * w
                acc[row] = prod if cur is None else cur + prod
        out += [(col, row, v) for row, v in acc.items() if not v.is_zero()]
    return out


def _nonzero_specialization(g, rng, bound=5, nonzero=()):
    """Seeded point with nonzero integer values in [-bound, bound], off
    the zero loci of g.nonzero and of the extra `nonzero` polynomials."""
    conds = [ParamPolynomial.variable(c) if isinstance(c, str) else c
             for c in g.nonzero]
    conds += [parse_polynomial(c) for c in nonzero]
    values = [v for v in range(-bound, bound + 1) if v]
    while True:
        assign = {p: Fraction(rng.choice(values)) for p in g.params}
        if all(c.evaluate(assign) != 0 for c in conds):
            return assign


def _eval_form(omega, *vecs):
    acc = omega
    for v in vecs:
        acc = interior_product(v, acc)
    return acc.coefficient(())


def _sorted_sign(seq):
    """Sign of the permutation that sorts `seq`, and the sorted tuple;
    (0, None) when an index repeats."""
    if len(set(seq)) < len(seq):
        return 0, None
    flips = sum(a > b for a, b in combinations(seq, 2))
    return (-1) ** flips, tuple(sorted(seq))


def _coadjoint_action(g, i, alpha):
    """L_{y_i} z_alpha as {beta: coefficient}: the derivation of
    Lambda^p g* with L_{y_i} z_k = -sum_j c_ijk z_j."""
    out = {}
    for t, k in enumerate(alpha):
        for j in range(1, 5):
            c = g.structure_constant(i, j, k)
            sign, beta = _sorted_sign(alpha[:t] + (j,) + alpha[t + 1:])
            if sign and not c.is_zero():
                out[beta] = out.get(beta, 0) - c * sign
    return out


def _form_differential(g, alpha):
    """d z_alpha as {beta: coefficient}: the odd derivation with
    d z_k = -sum_{i<j} c_ijk z_i ^ z_j."""
    out = {}
    for t, k in enumerate(alpha):
        for i, j in combinations(range(1, 5), 2):
            c = g.structure_constant(i, j, k)
            sign, beta = _sorted_sign(alpha[:t] + (i, j) + alpha[t + 1:])
            if sign and not c.is_zero():
                out[beta] = out.get(beta, 0) - c * (sign * (-1) ** t)
    return out


def _ce_basis(module, k):
    """Basis (alpha, S) of C_k(g; M), for M given by the form degrees of
    Lambda^p g* (one degree; 0 is the trivial module) or of the two-term
    complex d: Lambda^p g* -> Lambda^(p+1) g*, whose first term sits one
    chain degree lower (the mapping cone of d)."""
    out = []
    for pos, p in enumerate(module):
        n = k - (len(module) - 1 - pos)
        if n >= 0:
            out += [(alpha, S) for alpha in combinations(range(1, 5), p)
                    for S in combinations(range(1, 5), n)]
    return out


def _classical_ce_columns(g, k, module=(0,)):
    """Independent oracle: the textbook boundary C_k(g; M) -> C_{k-1}(g; M),

        d(a x_1...x_n) = sum_s (-1)^s (x_s . a) x_1..^x_s..x_n
                         + sum_{s<t} (-1)^(s+t) a [x_s,x_t] ^ rest,

    with x . a = L_x a on forms, plus (-1)^n (d a) x_1...x_n on the first
    term of a two-term module.  Built from g.structure_constant alone."""
    source = _ce_basis(module, k)
    target = {e: pos for pos, e in enumerate(_ce_basis(module, k - 1))}
    columns = {}
    for col, (alpha, S) in enumerate(source):
        terms = []
        for s in range(len(S)):
            rest = S[:s] + S[s + 1:]
            terms += [(beta, rest, v * (-1) ** (s + 1)) for beta, v in
                      _coadjoint_action(g, S[s], alpha).items()]
            for t in range(s + 1, len(S)):
                rest = S[:s] + S[s + 1:t] + S[t + 1:]
                w = g.bracket_basis(S[s], S[t])
                for c in range(1, 5):
                    sign, merged = _sorted_sign((c,) + rest)
                    if sign and not w.coeff(c).is_zero():
                        terms.append((alpha, merged,
                                      w.coeff(c) * (sign * (-1) ** (s + t))))
        if len(alpha) != module[-1]:
            terms += [(beta, S, v * (-1) ** len(S)) for beta, v in
                      _form_differential(g, alpha).items()]
        acc = {}
        for beta, merged, v in terms:
            row = target[(beta, merged)]
            acc[row] = acc[row] + v if row in acc else v
        entries = {r: v for r, v in acc.items() if not v.is_zero()}
        if entries:
            columns[col] = entries
    return columns


def _fraction_rank(columns):
    """Exact rank over Q of {column: {row: constant ParamPolynomial}}."""
    pivots = {}
    for by_row in columns.values():
        v = {r: x.evaluate({}) for r, x in by_row.items()}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = v
                break
            f = v[lead] / pivots[lead][lead]
            for r, x in pivots[lead].items():
                v[r] = v.get(r, 0) - f * x
            v = {r: x for r, x in v.items() if x}
    return len(pivots)


def _ce_rows(g, module, shift, ms):
    """Rows (m, dim, ker, betti) of C_{m-shift}(g; M) at a numeric point,
    exact over Q, after checking d^2 = 0 on the oracle itself."""
    ks = range(min(ms) - shift, max(ms) - shift + 2)
    cols = {k: _classical_ce_columns(g, k, module) for k in ks}
    for k in ks[1:]:
        assert not _compose_entries(cols[k], cols[k - 1]), (module, k)
    rank = {k: _fraction_rank(cols[k]) for k in ks}
    rows = []
    for m in ms:
        k = m - shift
        dim = len(_ce_basis(module, k))
        ker = dim - rank[k]
        rows.append((m, dim, ker, ker - rank[k + 1]))
    return rows


# The extended complex in weights -2 and -3 splits by its form letters into
# classical chain complexes.  The scalar 1 brackets to zero with 1 and is
# killed by every L_X, so 1...1 Y carries the trivial module; z_k Y carries
# g* under L_X; 1 z_k Y and z_ij Y carry d: g* -> Lambda^2 g*, since
# [1, z_k] = d z_k.  Entries: (module form degrees, m - k).
_EXTENDED_SPLIT = {
    -2: (((0,), 2), ((1,), 1)),
    -3: (((0,), 3), ((1, 2), 1)),
}


def _extended_oracle_rows(g, weight):
    """Extended-complex rows at a numeric point, summed over the split."""
    parts = [_ce_rows(g, module, shift, EXTENDED_MS[weight])
             for module, shift in _EXTENDED_SPLIT[weight]]
    return [(cells[0][0],) + tuple(map(sum, zip(*(c[1:] for c in cells))))
            for cells in zip(*parts)]


def test_criterion_06_property_suite():
    # (a) the boundary squares to zero as a polynomial identity, every
    # kind, family, and tabulated weight, at the uncleared fraction level
    for kind, weights in TABULATED:
        for weight in weights:
            top = max(m for m in range(10)
                      if chain_basis(kind, weight, m).dimension)
            for fam in range(1, 7):
                builder = _BoundaryBuilder(FAMILIES[fam], kind)
                cols = {m: _columns(builder.boundary(weight, m))
                        for m in range(1, top + 1)}
                for m in range(1, top):
                    bad = _compose_entries(cols[m + 1], cols[m])
                    assert not bad, (kind, weight, fam, m, bad[:3])

    # (b) bracket laws on the full letter alphabets at two random
    # specializations per family; antisymmetry on all ordered pairs makes
    # sorted triples sufficient for the super-Jacobi identity
    rng = random.Random(20260823)
    for fam in range(1, 7):
        g0 = FAMILIES[fam]
        for rep in range(2):
            g = g0.specialize(_nonzero_specialization(g0, rng),
                              label=f"f{fam}r{rep}")
            for bracket, letters in ((schouten_bracket, MULTI_LETTERS),
                                     (form_bracket, FORM_LETTERS),
                                     (extended_bracket, EXT_LETTERS)):
                for u, v in itertools.product(letters, repeat=2):
                    pu, pv = u.component.parity, v.component.parity
                    out = bracket(g, u, v)
                    flip = bracket(g, v, u).scale(-((-1) ** (pu * pv)))
                    assert out == flip, (fam, str(u), str(v))
                    assert out.component.grade == \
                        u.component.grade + v.component.grade
                for u, v, w in itertools.combinations_with_replacement(
                        letters, 3):
                    pu, pv = u.component.parity, v.component.parity
                    lhs = bracket(g, u, bracket(g, v, w))
                    rhs = bracket(g, bracket(g, u, v), w) + \
                        bracket(g, v, bracket(g, u, w)).scale(
                            (-1) ** (pu * pv))
                    assert lhs == rhs, (fam, str(u), str(v), str(w))

    # (c) d^2 = 0 symbolically on every form monomial
    for fam in range(1, 7):
        g = FAMILIES[fam]
        for a in FORM_LETTERS:
            assert ce_differential(g, ce_differential(g, a)).is_zero()

    # (d) Cartan formula against the coordinate Lie derivative
    for fam in range(1, 7):
        g = FAMILIES[fam]
        for i in range(1, 5):
            for k in range(1, 5):
                want = GradedElement(
                    GradedComponent(FORM, 1),
                    {(j,): g.structure_constant(i, j, k)
                     for j in range(1, 5)}).scale(-1)
                assert lie_derivative(g, y(i), z(k)) == want, (fam, i, k)
            for idx in combinations(range(1, 5), 2):
                om = z(*idx)
                lx = lie_derivative(g, y(i), om)
                for u, v in combinations(range(1, 5), 2):
                    # invariant-form coordinates: (L_X om)(u, v)
                    # + om([X,u], v) + om(u, [X,v]) = 0
                    total = _eval_form(lx, Vector4.basis(u), Vector4.basis(v))
                    total = total + _eval_form(
                        om, g.bracket_basis(i, u), Vector4.basis(v))
                    total = total + _eval_form(
                        om, Vector4.basis(u), g.bracket_basis(i, v))
                    assert total.is_zero(), (fam, i, idx, u, v)

    # (e) weight-0 tangent reports equal the classical oracle's reports
    mode = Randomized(seed=1729, trials=3)
    for fam in range(1, 7):
        g = FAMILIES[fam]
        dims = [comb(4, m) for m in range(5)]
        ranks = [0] * 6
        for m in range(1, 5):
            M = _cleared_matrix(_tensor(comb(4, m - 1), comb(4, m),
                                        _classical_ce_columns(g, m)))
            ranks[m], _ = matrix_rank(M, mode, nonzero=g.nonzero)
        want = [(m, dims[m], dims[m] - ranks[m],
                 dims[m] - ranks[m] - ranks[m + 1]) for m in range(5)]
        got = [tuple(r) for r in homology_report(TANGENT, 0, g, mode).rows]
        assert got == want, fam


# ---------------------------------------------------------------------------
# criterion 7: flag-coefficient suite for the twelve classified algebras


def test_criterion_07_flag_coefficient_suite():
    # closed forms: each type either matches or carries a documented,
    # machine-verified correction
    mismatched = [n for n in range(1, 13) if not elc_formula_check(n)]
    for n in mismatched:
        report = elc_formula_report(n)
        assert report["corrected"] == CORRECTED_FORMULAS[n][1], n
        computed = elc(class_type(n), PlanePair.symbolic()).value
        assert (computed - ParamPolynomial.lift(CORRECTED_FORMULAS[n][0]())) \
            .is_zero(), n
        print(f"discrepancy: type-{n} tabulated closed form "
              f"{report['transcribed']!r} differs from the computed "
              f"coefficient; corrected form {report['corrected']!r} matches")
    assert mismatched == [9]

    # degenerating parameter loci kill the coefficient identically
    for n, cases in ((2, ({"a": 1},)),
                     (5, ({"a": 1}, {"b": 1}, {"a": 3, "b": 3})),
                     (9, ({"b": 1},))):
        for kwargs in cases:
            assert elc(class_type(n, **kwargs),
                       PlanePair.symbolic()).value.is_zero(), (n, kwargs)

    # every printed witness plane must verify, except type 5: its printed
    # plane lies in span(y1, y3, y4), which class_type(5) closes under the
    # bracket, and the paper's own closed form for type 5 (confirmed above)
    # carries the factor Det(2,4), which vanishes on that plane
    failures = [n for n in range(1, 13)
                if not verify_witness(n, *WITNESSES[n])]
    p, q = WITNESSES[5]
    assert p[1] == q[1] == 0
    g5 = class_type(5)
    for i, j in combinations((1, 3, 4), 2):
        assert g5.bracket_basis(i, j).coeff(2).is_zero(), (i, j)
    at_plane = {f"p{i}": x for i, x in enumerate(p, start=1)}
    at_plane.update({f"q{i}": x for i, x in enumerate(q, start=1)})
    at_plane.update({"a": ParamPolynomial.variable("a"),
                     "b": ParamPolynomial.variable("b")})
    assert transcribed_formula(5).substitute(at_plane).is_zero()
    assert verify_witness(5, *WITNESS_CORRECTIONS[5])
    print("note: the type-5 printed pair spans a plane inside the closed "
          "subalgebra span(y1, y3, y4), whose flag never reaches dimension "
          "4; replacing q by (1, 1, 1, 0) verifies")
    assert failures == [5]


# ---------------------------------------------------------------------------
# criterion 8: characteristic line fields


def test_criterion_08_characteristic_foliation():
    for fam in (1, 2, 4, 5, 6):
        fol = characteristic_foliation(FAMILIES[fam])
        assert fol.kind == "line", fam
        assert fol.describe() == "span(C234*y1 - y2)", fam
        assert foliation_containment(FAMILIES[fam], fol.direction), fam
    # family 3 is claimed to carry the full plane of characteristic lines;
    # it carries one line, as no family can carry the plane: all six share
    # [y1,y3] = y4 with y4 outside D2 = span(y1, y2, y3), so y1 is never
    # characteristic
    fol3 = characteristic_foliation(FAMILIES[3])
    assert fol3.kind == "line"
    assert fol3.describe() == "span(C244*y1 - C144*y2)"
    assert foliation_containment(FAMILIES[3], fol3.direction)
    y1, y2, y3, y4 = (Vector4.basis(i) for i in range(1, 5))
    for fam in range(1, 7):
        g = FAMILIES[fam]
        assert (g.bracket(y1, y3) - y4).is_zero(), fam
        assert not foliation_containment(g, (1, 0)), fam
        # the weaker reading [L, D] in D2 holds for every direction of every
        # family, so it would make all six planes, against the lines above
        assert all(g.bracket(u, v).coeff(4).is_zero()
                   for u in (y1, y2) for v in (y1, y2)), fam
    print("note: family-3 is claimed to admit the full plane of invariant "
          f"lines, but only {fol3.describe()} is; [y1, y3] = y4 leaves D2 "
          "in every family")


# ---------------------------------------------------------------------------
# criteria 9-10: invariance and separation


def _random_invertible(rng):
    while True:
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
             for _ in range(4)]
        try:
            inverse(T)
        except ValueError:
            continue
        return T


def _flag_rows(g, e1, e2):
    """Rows (in y-coordinates) of e1, e2, e3 = [e1,e2], e4 = [e1,e3]."""
    e3 = g.bracket(e1, e2)
    return [[c.evaluate({}) for c in e.coeffs]
            for e in (e1, e2, e3, g.bracket(e1, e3))]


def _iso_2_4(src, x):
    """Certify family 2 ~ family 4 at a numeric point x of family `src`.

    Returns (T, y): family `src` at x, rebased by change_basis(T), has
    exactly the brackets of the other family at y; the assertion names x
    and T when it does not.  From family 2: e2 = y1, e1 = [y1,y3] -
    (C144/2) y3 gives family 4 at C231 = -(C144^2 + 4 C143)/4, C234 = 0,
    C244 = C144/2 (T is singular on C144^2 + 4 C143 = 0).  From family 4:
    e2 = y2, e1 = [y2,y1] - C244 y1 reaches its C234 = 0 slice, which
    family 2 meets at C144 = 2 C244, C143 = -C231 - C244^2 (C231, C244
    nonzero).
    """
    g = FAMILIES[src].specialize(x)
    y1, y2, y3 = (Vector4.basis(i) for i in (1, 2, 3))
    if src == 2:
        c143, c144 = x["C143"], x["C144"]
        T = _flag_rows(g, g.bracket(y1, y3) - y3.scale(c144 / 2), y1)
        dst, y = 4, {"C231": -(c144 ** 2 + 4 * c143) / 4, "C234": 0,
                     "C244": c144 / 2}
    else:
        c231, c244 = x["C231"], x["C244"]
        to_slice = _flag_rows(g, g.bracket(y2, y1) - y1.scale(c244), y2)
        dst, y = 2, {"C143": -c231 - c244 ** 2, "C144": 2 * c244,
                     "C234": x["C234"], "C244": c244}
        back = inverse(_iso_2_4(2, y)[0])
        T = [[sum(a * b for a, b in zip(row, col)) for col in zip(*to_slice)]
             for row in back]
    h, want = g.change_basis(T), FAMILIES[dst].specialize(y)
    assert all((h.structure_constant(i, j, k)
                - want.structure_constant(i, j, k)).is_zero()
               for i, j in combinations(range(1, 5), 2)
               for k in range(1, 5)), (src, x, T)
    return T, y


def test_criterion_09_isomorphism_invariance():
    rng = random.Random(41)
    for fam in range(1, 7):
        g0 = FAMILIES[fam]
        g = g0.specialize(
            {p: Fraction(i + 2) for i, p in enumerate(g0.params)},
            label=f"fix{fam}")
        base = {}
        for kind, weights in TABULATED:
            for weight in weights:
                base[(kind, weight)] = homology_report(kind, weight, g).rows
        for _ in range(10):
            h = g.change_basis(_random_invertible(rng))
            for (kind, weight), rows in base.items():
                assert homology_report(kind, weight, h).rows == rows, \
                    (fam, kind, weight)


def test_criterion_10_pairwise_separation():
    sig = {}
    for fam in range(1, 7):
        sig[fam] = tuple((kind, weight, _generic_rows(kind, weight, fam))
                         for kind, weights in TABULATED
                         for weight in weights)
    stuck = [(a, b) for a, b in combinations(range(1, 7), 2)
             if sig[a] == sig[b]]
    # families 2 and 4 are generically isomorphic, so no weighted table at
    # any weight can separate them: certify it both ways at seeded points
    rng = random.Random(2212)
    for _ in range(3):
        _iso_2_4(2, _nonzero_specialization(FAMILIES[2], rng, 97,
                                            ("C144^2 + 4*C143",)))
        _iso_2_4(4, _nonzero_specialization(FAMILIES[4], rng, 97))
    certified = [(2, 4)]
    print(f"note: certified isomorphic pairs {certified} share every table")
    assert stuck == certified, (
        f"family pairs {stuck} share every tabulated generic table; "
        f"certified isomorphic: {certified}")
