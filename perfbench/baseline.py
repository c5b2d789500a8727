"""Regenerate the per-layer Baseline table of ROADMAP.md.

    python3 perfbench/baseline.py [--repeat N]

Traces randomized-mode reports on family 2 for tangent w=2, cotangent
w=-7 and extended w=-3 with the benchmark's tracer, and prints a
markdown table of self seconds per layer, the median of N traced runs:
assemble (report assembly plus the superalgebra brackets), clear
(denominator clearing), rank (mod-p rank with its evaluation) and basis
(chain-basis enumeration).
"""

import argparse
import statistics
import sys

import run

CASES = (("tangent", 2), ("cotangent", -7), ("extended", -3))
COLUMNS = (
    ("assemble", ("weighted.assemble", "superalg.bracket")),
    ("clear", ("weighted.clear",)),
    ("rank", ("exact.rank_modp",)),
    ("basis", ("weighted.basis",)),
)


def traced_case(kind, weight, algebra):
    import spans
    from engelhomology import weighted

    tracer = spans.Tracer()
    with tracer:
        tracer.run_item(f"{kind} {weight}", lambda: weighted.homology_report(
            kind, weight, algebra))
    selfs = tracer.self_times()
    return {col: sum(selfs.get(name, (0, 0.0))[1] for name in names)
            for col, names in COLUMNS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    if not run.use_checkout_sources():
        return 2
    from engelhomology import liealg

    algebra = liealg.family(2)
    print("| case | " + " | ".join(col for col, _ in COLUMNS) + " |")
    print("| --- |" + " --- |" * len(COLUMNS))
    for kind, weight in CASES:
        runs = [traced_case(kind, weight, algebra)
                for _ in range(args.repeat)]
        cells = [f"{statistics.median(r[col] for r in runs):.3f} s"
                 for col, _ in COLUMNS]
        print(f"| {kind} w={weight} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
