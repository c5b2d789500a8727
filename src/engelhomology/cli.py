"""Batch command-line front end.

Subcommands: `families` (catalog), `jacobi` (identity check), `betti`
(weighted-complex reports), `elc` (plane-field coefficient analysis),
`foliation` (characteristic foliation).  Output is deterministic for a
fixed invocation, including the randomized rank mode, whose seed and
trial count are embedded in every report.

Exit codes: 0 success, 1 usage error, 2 constraint or verification
failure, 3 internal arithmetic error.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .engel import (
    PlanePair,
    characteristic_foliation,
    elc,
    elc_formula_report,
    foliation_containment,
    render_sum,
)
from .exact import (
    DegenerateDenominator,
    MissingParameter,
    Randomized,
    Specialized,
    SymbolicGeneric,
    parse_fraction,
)
from .liealg import (
    ConstraintViolation,
    LieAlgebra4,
    class_type,
    engel_ansatz,
    family,
)
from .weighted import COTANGENT, EXTENDED, TANGENT, homology_report

KINDS = (TANGENT, COTANGENT, EXTENDED)


class VerificationFailure(Exception):
    """A requested check computed cleanly but did not hold."""


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # constraint/verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_rational(text):
    """A rational number as typed; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_assignment(text):
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, value = (part.strip() for part in piece.partition("="))
        if not _ or not name:
            raise ValueError(f"expected name=value, got {piece!r}")
        if name in out:
            raise ValueError(f"parameter {name} is given twice")
        out[name] = _parse_rational(value)
    return out


def _parse_weights(text):
    try:
        weights = [int(w) for w in text.split(",") if w.strip()]
    except ValueError:
        raise ValueError(f"weights must be integers: {text!r}")
    if not weights:
        raise ValueError(f"no weights given: {text!r}")
    return weights


def _parse_witness(text):
    pieces = [piece.partition("=") for piece in text.split(";")]
    parts = {key: value for key, _, value in pieces}
    if sorted(key + eq for key, eq, _ in pieces) != ["p=", "q="]:
        raise ValueError(f"witness needs p=...;q=..., got {text!r}")
    vectors = []
    for key in ("p", "q"):
        coords = [_parse_rational(x) for x in parts[key].split(",")]
        if len(coords) != 4:
            raise ValueError(f"{key} needs 4 coordinates")
        vectors.append(tuple(coords))
    return vectors


def _load_inline(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("inline algebra must be a JSON object")
    if doc.get("basis_dim") != 4:
        raise ValueError("inline algebra must have basis_dim 4")
    constants = {}
    seen = set()
    for entry in _json_list(doc.get("brackets", []), "brackets"):
        if not isinstance(entry, dict):
            raise ValueError("each bracket entry must be a JSON object")
        for key in ("i", "j", "coeffs"):
            if key not in entry:
                raise ValueError('inline algebra: a bracket entry has no '
                                 f'"{key}" key')
        i, j = entry["i"], entry["j"]
        if {type(i), type(j)} != {int}:
            raise ValueError("inline algebra: bracket i and j must be JSON "
                             f"integers, not {json.dumps([i, j])}")
        if (i, j) in seen:
            raise ValueError(f"bracket ({i},{j}) is given twice")
        seen.add((i, j))
        coeffs = _json_list(entry["coeffs"], f"bracket ({i},{j}) coeffs")
        if len(coeffs) != 4:
            raise ValueError(f"bracket ({i},{j}) needs 4 coefficients")
        for k, text in enumerate(coeffs, start=1):
            if type(text) not in (int, str):
                raise ValueError(f"bracket ({i},{j}): coefficient "
                                 f"{json.dumps(text)} is neither an integer "
                                 "nor a string")
            try:
                v = parse_fraction(str(text))
            except ZeroDivisionError:
                raise ValueError(f"bracket ({i},{j}): zero denominator in "
                                 f"{text!r}") from None
            if not v.is_zero():
                constants[(i, j, k)] = v
    nonzero = _json_list(doc.get("nonzero", []), "nonzero")
    algebra = LieAlgebra4(Path(path).stem, constants, tuple(nonzero))
    # str: a JSON number is not a parameter name either, and sorts with
    # the names in the message
    _check_names("nonzero", [str(name) for name in nonzero], algebra)
    return algebra


def _json_list(value, what):
    if not isinstance(value, list):
        raise ValueError(f"inline algebra: {what} must be a JSON list")
    return value


def _add_selector(sub):
    """--param, then the required algebra choice; returns its group (the
    usage line brackets a group only while its options are adjacent)."""
    sub.add_argument("--param", metavar="A", action="append",
                     help="scalar parameters, e.g. a=2,b=3 (repeatable)")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", type=int, metavar="N",
                       help="catalogued family 1..6")
    group.add_argument("--type", type=int, metavar="N", dest="class_type",
                       help="fixed classified algebra 1..12")
    group.add_argument("--inline", metavar="FILE",
                       help="JSON structure-constant file")
    return group


def _check_names(option, assignment, algebra):
    """A usage error for a name that is not a parameter of the algebra."""
    unknown = sorted(set(assignment) - set(algebra.params))
    if unknown:
        known = ", ".join(algebra.params) or "none"
        raise ValueError(f"{option}: unknown parameter {unknown[0]} of "
                         f"{algebra.label} (its parameters: {known})")


def _pick_algebra(args):
    params = _parse_assignment(args.param) if args.param else {}
    if params and getattr(args, "class_type", None) is None:
        raise ValueError("--param applies to --type selectors")
    if args.family is not None:
        return family(args.family)
    if getattr(args, "class_type", None) is not None:
        _check_names("--param", params, class_type(args.class_type))
        return class_type(args.class_type, **params)
    return _load_inline(args.inline)


def _bracket_lines(algebra):
    lines = []
    for i in range(1, 5):
        for j in range(i + 1, 5):
            value = render_sum(((algebra.structure_constant(i, j, k), f"y{k}")
                                for k in range(1, 5)), " ")
            lines.append(f"[y{i},y{j}] = {value}")
    return lines


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a list of output lines)


def cmd_families(args):
    if args.action == "list":
        lines = []
        for n in range(1, 7):
            g = family(n)
            names = ", ".join(g.params) if g.params else "-"
            lines.append(f"family-{n}: parameters {names}")
        return lines
    g = family(args.n)
    return [g.label] + _bracket_lines(g)


def cmd_jacobi(args):
    if args.ansatz:
        algebra = engel_ansatz()
        residuals = algebra.jacobi_residuals()
        lines = [f"ansatz parameters: {', '.join(algebra.params)}"]
        for (i, j, k, m), poly in sorted(residuals.items()):
            lines.append(f"J({i},{j},{k})[y{m}] = {poly}")
        lines.append("verdict: OPEN")
        return lines
    algebra = _pick_algebra(args)
    residuals = algebra.jacobi_residuals()
    bad = {key: p for key, p in residuals.items() if not p.is_zero()}
    lines = [f"algebra: {algebra.label}"]
    for (i, j, k, m), poly in sorted(bad.items()):
        lines.append(f"J({i},{j},{k})[y{m}] = {poly}")
    if bad:
        lines.append("verdict: FAIL")
        raise VerificationFailure("\n".join(lines))
    lines.append("verdict: PASS")
    return lines


def _betti_mode(args, assignment):
    if args.mode == "symbolic":
        return SymbolicGeneric()
    if args.mode == "specialized":
        if not assignment:
            raise ValueError("--mode specialized needs --specialize")
        return Specialized(assignment)
    return Randomized(seed=args.seed, trials=args.trials)


def cmd_betti(args):
    algebra = _pick_algebra(args)
    weights = _parse_weights(args.weights)
    assignment = (_parse_assignment(args.specialize)
                  if args.specialize else None)
    if assignment:
        _check_names("--specialize", assignment, algebra)
    mode = _betti_mode(args, assignment)
    reports = [homology_report(args.complex, w, algebra, mode,
                               specialization=assignment)
               for w in weights]
    if args.format == "json":
        docs = [r.to_json() for r in reports]
        return [json.dumps(docs, sort_keys=True, indent=2)]
    blocks = []
    for r in reports:
        if args.format == "csv":
            block = r.to_csv().rstrip("\n")
        else:
            block = r.to_table().rstrip("\n")
            if args.paper_table:
                head, _, rest = block.partition("\n")
                head += f" (caption weight {abs(r.weight)})"
                block = head + "\n" + rest if rest else head
        blocks.append(block)
    lines = []
    for block in blocks:
        if lines:
            lines.append("")
        lines.append(block)
    return lines


def cmd_elc(args):
    if getattr(args, "class_type", None) is not None and args.symbolic \
            and not args.param:
        report = elc_formula_report(args.class_type)
        if report["match"]:
            return [report["transcribed"]]
        lines = ["closed-form check: MISMATCH",
                 f"tabulated:  {report['transcribed']}",
                 f"computed:   {report['computed']}"]
        if "corrected" in report:
            lines.append(f"corrected:  {report['corrected']}")
        return lines
    algebra = _pick_algebra(args)
    if args.witness:
        p, q = _parse_witness(args.witness)
        value = elc(algebra, PlanePair(p, q)).value
        lines = [f"E-l-C = {value}"]
        if value.is_zero():
            lines.append("ZERO")
            raise VerificationFailure("\n".join(lines))
        lines.append("NONZERO")
        return lines
    value = elc(algebra, PlanePair.symbolic()).value
    return [str(value)]


def cmd_foliation(args):
    algebra = _pick_algebra(args)
    result = characteristic_foliation(algebra)
    if args.format == "json":
        doc = result.to_json()
        if result.direction is not None:
            doc["containment"] = foliation_containment(
                algebra, result.direction)
        return [json.dumps(doc, sort_keys=True, indent=2)]
    lines = [f"algebra: {algebra.label}", result.describe()]
    if result.direction is not None:
        ok = foliation_containment(algebra, result.direction)
        lines.append(f"containment re-check: {'PASS' if ok else 'FAIL'}")
        if not ok:
            raise VerificationFailure("\n".join(lines))
    if result.note:
        lines.append(f"note: {result.note}")
    return lines


# ---------------------------------------------------------------------------
# parser assembly


@lru_cache(maxsize=1)
def build_parser():
    """The parser, built once per process: parse_args keeps no state."""
    ap = _Parser(prog="engelhomology",
                 description="Exact weighted-homology and plane-field "
                             "calculator for 4-dimensional Lie algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="catalog of the six families")
    fam_sub = fam.add_subparsers(dest="action", required=True)
    fam_sub.add_parser("list", help="ids and parameter alphabets")
    show = fam_sub.add_parser("show", help="bracket table of one family")
    show.add_argument("n", type=int)
    fam.set_defaults(func=cmd_families)

    jac = sub.add_parser("jacobi", help="Jacobi identity check")
    _add_selector(jac).add_argument(
        "--ansatz", action="store_true",
        help="unsolved 16-parameter bracket ansatz")
    jac.set_defaults(func=cmd_jacobi)

    bet = sub.add_parser("betti", help="weighted-complex homology reports")
    _add_selector(bet)
    bet.add_argument("--complex", required=True, choices=KINDS)
    bet.add_argument("--weights", required=True,
                     help="comma-separated signed integers, e.g. -5,-6")
    bet.add_argument("--mode", default="randomized",
                     choices=("randomized", "symbolic", "specialized"))
    bet.add_argument("--seed", type=int, default=1729)
    bet.add_argument("--trials", type=int, default=3)
    bet.add_argument("--specialize", metavar="A", action="append",
                     help="parameter assignment, e.g. C244=0 (repeatable)")
    bet.add_argument("--format", default="table",
                     choices=("table", "json", "csv"))
    bet.add_argument("--paper-table", action="store_true",
                     help="add the absolute-value weight caption alias")
    bet.add_argument("--output", metavar="PATH", default=None)
    bet.set_defaults(func=cmd_betti)

    elc_p = sub.add_parser("elc", help="Engel-like coefficient analysis")
    _add_selector(elc_p)
    elc_p.add_argument("--symbolic", action="store_true",
                       help="closed-form check / symbolic coefficient")
    elc_p.add_argument("--witness", metavar="P;Q", default=None,
                       help='candidate plane, e.g. "p=0,0,0,1;q=0,0,1,0"')
    elc_p.add_argument("--output", metavar="PATH", default=None)
    elc_p.set_defaults(func=cmd_elc)

    fol = sub.add_parser("foliation", help="characteristic foliation")
    _add_selector(fol)
    fol.add_argument("--format", default="table", choices=("table", "json"))
    fol.add_argument("--output", metavar="PATH", default=None)
    fol.set_defaults(func=cmd_foliation)

    return ap


def _emit(lines, args):
    text = "\n".join(line.rstrip("\n") for line in lines) + "\n"
    path = getattr(args, "output", None)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _normalize_argv(argv):
    """Merge dash-leading option values ("--weights -5,-6") into the
    "--weights=-5,-6" form so argparse does not read them as flags."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--weights", "--specialize", "--param", "--witness") \
                and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    for dest in ("param", "specialize"):  # repeats merge into one list
        if getattr(args, dest, None):
            setattr(args, dest, ",".join(getattr(args, dest)))
    try:
        lines = args.func(args)
    except VerificationFailure as exc:
        sys.stdout.write(str(exc) + "\n")
        return 2
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except (MissingParameter, DegenerateDenominator,
            ZeroDivisionError, OverflowError) as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    _emit(lines, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
