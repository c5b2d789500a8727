"""The benchmark's four workloads, each a list of checked items.

An item is one call a user of the package would make: one report, or
one plane for the plane analysis.  `run` performs the call and is the
only timed part; `check` compares its output with `want`, the expected
value frozen from the package (`expected.json`) or derived from an
independent closed form.  Inputs that vary come from the seed.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from engelhomology import cli, engel, exact, liealg, weighted

EXPECTED = Path(__file__).with_name("expected.json")

FAMILIES = tuple(range(1, 7))
TYPES = tuple(range(1, 13))

# every (complex, weight) of the published tables
TABULATED = (
    ("tangent", (0, 1, 2)),
    ("cotangent", (-5, -6, -7)),
    ("extended", (-2, -3)),
)
TABLES = tuple((kind, w) for kind, ws in TABULATED for w in ws)

# the published tables whose reports take well under a second, less
# cotangent -7; a pass in a fresh interpreter stays near 7 s, so that
# every run repeats it at least three times
INVARIANCE_CASES = tuple(c for c in TABLES if c not in (
    ("tangent", 2), ("extended", -3), ("cotangent", -7)))

# the published tables whose symbolic report takes at most about 2 s,
# less the two slowest reports, which alone took 45 % of a pass; a pass
# then fits about five times in a run and Bareiss still takes about
# 80 % of its self time
SYMBOLIC_CASES = (("tangent", 0), ("cotangent", -5), ("cotangent", -6),
                  ("extended", -2))
SYMBOLIC_SKIPPED = (("cotangent", -6, 2), ("extended", -2, 2))

PLANES_PER_TYPE = 20


class Item(NamedTuple):
    ident: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    want: Any


def table_key(kind, weight, fam):
    return f"{kind} {weight} {fam}"


def fixed_point(algebra):
    """The rational point of criterion 09: parameter i takes i + 2."""
    return {p: Fraction(i + 2) for i, p in enumerate(algebra.params)}


def random_invertible(rng):
    while True:
        T = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        # |det| <= 4! * 3^4, so the float determinant rounds exactly
        if round(np.linalg.det(T)):
            return T


# ---------------------------------------------------------------------------
# checks


def check_equal(out, want):
    return out == want


def check_rows(out, want):
    return [list(r) for r in out] == want


def check_cli(out, want):
    code, text = out
    return code == 0 and json.loads(text) == want


def check_foliation(out, want):
    doc, contained = out
    return contained is True and doc == want


def check_plane(out, want):
    value, flags = out
    value = value.value.evaluate({})
    # a nonzero coefficient means w1..w4 span, so D2 = 3 and D3 = 4
    return value == want and (value == 0 or flags == (3, 4))


# ---------------------------------------------------------------------------
# workloads


def _cli_betti(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def tables_randomized(rng, expected):
    """Every published table through the `betti` command, in-process."""
    items = []
    for kind, weight in TABLES:
        for fam in FAMILIES:
            argv = ["betti", "--family", str(fam), "--complex", kind,
                    "--weights", str(weight), "--format", "json"]
            items.append(Item(
                f"betti {kind} {weight} family-{fam}",
                lambda argv=argv: _cli_betti(argv), check_cli,
                expected["tables"][table_key(kind, weight, fam)]))
    rng.shuffle(items)
    return items


def _changed_report(kind, weight, fam, point, T):
    g = liealg.family(fam).specialize(point, label=f"fix{fam}")
    return weighted.homology_report(kind, weight, g.change_basis(T)).rows


def _specialized_report(kind, weight, fam, point):
    return weighted.homology_report(kind, weight, liealg.family(fam),
                                    exact.Specialized(point)).rows


def invariance_specialized(rng, expected):
    """Criterion 09's shape: a seeded basis change of the algebra at a
    fixed point, and Specialized mode at that point, must both give the
    parameter-free rows."""
    items = []
    for fam in FAMILIES:
        point = fixed_point(liealg.family(fam))
        for kind, weight in INVARIANCE_CASES:
            want = expected["invariance"][table_key(kind, weight, fam)]
            T = random_invertible(rng)
            items.append(Item(
                f"changed {kind} {weight} family-{fam}",
                lambda a=(kind, weight, fam, point, T): _changed_report(*a),
                check_rows, want))
            items.append(Item(
                f"specialized {kind} {weight} family-{fam}",
                lambda a=(kind, weight, fam, point): _specialized_report(*a),
                check_rows, want))
    rng.shuffle(items)
    return items


def _symbolic_report(kind, weight, fam):
    return weighted.homology_report(kind, weight, liealg.family(fam),
                                    exact.SymbolicGeneric()).rows


def symbolic_certify(rng, expected):
    """Symbolic reports must equal the Randomized(1729, 3) rows."""
    items = []
    for kind, weight in SYMBOLIC_CASES:
        for fam in FAMILIES:
            if (kind, weight, fam) in SYMBOLIC_SKIPPED:
                continue
            doc, = expected["tables"][table_key(kind, weight, fam)]
            want = [[r["m"], r["dim"], r["ker"], r["betti"]]
                    for r in doc["rows"]]
            items.append(Item(
                f"symbolic {kind} {weight} family-{fam}",
                lambda a=(kind, weight, fam): _symbolic_report(*a),
                check_rows, want))
    rng.shuffle(items)
    return items


def closed_form(n):
    """The published E-l-C closed form, with the documented type-9 fix."""
    if n in engel.CORRECTED_FORMULAS:
        return engel.CORRECTED_FORMULAS[n][0]()
    return engel.transcribed_formula(n)


def random_parameters(rng, n):
    """A seeded point on the admissible locus of type n."""
    free = liealg.class_type(n).params
    while True:
        params = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for name in free}
        try:
            liealg.class_type(n, **params)
        except liealg.ConstraintViolation:
            continue
        return params


def _plane(n, params, p, q):
    g = liealg.class_type(n, **params)
    plane = engel.PlanePair(p, q)
    return engel.elc(g, plane), engel.engel_flag_check(g, plane)


def _foliation(fam):
    g = liealg.family(fam)
    fol = engel.characteristic_foliation(g)
    return fol.to_json(), engel.foliation_containment(g, fol.direction)


def plane_analysis(rng, expected):
    """Closed forms, witnesses, foliations and seeded numeric planes."""
    items = []
    for n in TYPES:
        items.append(Item(f"formula type-{n}",
                          lambda n=n: engel.elc_formula_report(n),
                          check_equal, expected["formulas"][str(n)]))
    witnesses = [(n, engel.WITNESSES[n], "printed") for n in TYPES]
    witnesses += [(n, pq, "corrected")
                  for n, pq in sorted(engel.WITNESS_CORRECTIONS.items())]
    for n, (p, q), tag in witnesses:
        items.append(Item(f"witness {tag} type-{n}",
                          lambda a=(n, p, q): engel.verify_witness(*a),
                          check_equal, expected["witnesses"][tag][str(n)]))
    for fam in FAMILIES:
        items.append(Item(f"foliation family-{fam}",
                          lambda fam=fam: _foliation(fam),
                          check_foliation, expected["foliations"][str(fam)]))
    for n in TYPES:
        form = closed_form(n)
        for k in range(PLANES_PER_TYPE):
            params = random_parameters(rng, n)
            p = [rng.randint(-3, 3) for _ in range(4)]
            q = [rng.randint(-3, 3) for _ in range(4)]
            point = dict(params)
            point.update({f"p{i}": Fraction(x) for i, x in enumerate(p, 1)})
            point.update({f"q{i}": Fraction(x) for i, x in enumerate(q, 1)})
            items.append(Item(f"plane type-{n} #{k}",
                              lambda a=(n, params, p, q): _plane(*a),
                              check_plane, form.evaluate(point)))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "tables-randomized": tables_randomized,
    "invariance-specialized": invariance_specialized,
    "symbolic-certify": symbolic_certify,
    "plane-analysis": plane_analysis,
}


def build(name, seed):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    return WORKLOADS[name](random.Random(seed), expected)
