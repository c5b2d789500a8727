"""Small smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs cheap subsets of the workloads in-process and checks that
1. every output check passes as frozen, a planted wrong expectation
   makes the item fail, and an item that raises is counted as failed
   without aborting its pass;
2. on a traced pass the summed layer self times never exceed the traced
   wall time, and the layers each workload exists for carry time;
3. the printed metric names and units are those BENCHMARK.json declares.
Exits 0 when every check holds, 1 otherwise.
"""

import copy
import sys

import run

FAILURES = []


def expect(cond, message):
    if not cond:
        FAILURES.append(message)


def subset(name, keep, seed=7):
    import workloads
    return [it for it in workloads.build(name, seed) if keep(it.ident)]


def failed_idents(items):
    return [ident for ident, _ in run.run_pass(items).failures]


def check_failures_counted():
    tables = subset("tables-randomized", lambda i: "tangent 0 " in i)
    expect(len(tables) == 6, "tables subset has 6 items")
    expect(not failed_idents(tables), "frozen tables rows pass")
    wrong = copy.deepcopy(tables[0].want)
    wrong[0]["rows"][0]["ker"] += 1
    planted = [tables[0]._replace(want=wrong)] + tables[1:]
    expect(failed_idents(planted) == [tables[0].ident],
           "a planted wrong table row fails exactly its item")

    planes = subset("plane-analysis", lambda i: i.startswith("plane type-7"))
    expect(planes and not failed_idents(planes), "numeric planes pass")
    planted = [planes[0]._replace(want=planes[0].want + 1)] + planes[1:]
    expect(failed_idents(planted) == [planes[0].ident],
           "a planted wrong E-l-C value fails exactly its item")

    def boom():
        raise ArithmeticError("planted")

    raising = [tables[0]._replace(run=boom)] + tables[1:]
    result = run.run_pass(raising)
    expect(len(result.latencies) == len(tables),
           "a raising item does not abort the pass")
    expect([i for i, _ in result.failures] == [tables[0].ident],
           "a raising item counts as failed")


def check_self_times():
    import spans
    cases = (
        ("invariance-specialized",
         lambda i: " tangent 0 " in i or " cotangent -5 " in i,
         ("weighted.assemble", "superalg.bracket")),
        ("symbolic-certify", lambda i: " tangent 0 " in i,
         ("exact.rank_bareiss",)),
        ("plane-analysis", lambda i: "type-3" in i,
         ("engel.elc", "engel.flag")),
    )
    for name, keep, busy in cases:
        items = subset(name, keep)
        result, _ = run.traced_pass(items)
        expect(not result.failures, f"{name}: traced subset passes")
        selfs = result.selfs
        layers = sum(t for span, (_, t) in selfs.items()
                     if span != spans.ROOT)
        expect(0 < layers <= result.wall,
               f"{name}: layer self times {layers:.4f} s within traced "
               f"wall {result.wall:.4f} s")
        for span in busy:
            expect(selfs.get(span, (0, 0.0))[1] > 0,
                   f"{name}: {span} carries self time")


def check_metric_names():
    """The printed metrics are exactly those BENCHMARK.json declares."""
    import json
    import spans
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    items = subset("tables-randomized", lambda i: "tangent 0 " in i)
    plain = run.run_pass(items)
    traced, _ = run.traced_pass(items)
    for key, metrics in (
            ("end_to_end", run.end_to_end([plain], [0.2])),
            ("per_layer", run.per_layer([plain, traced]))):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        printed = [(name, unit) for name, (_, unit) in metrics.items()]
        expect(declared == printed, f"{key} metrics match BENCHMARK.json")


def main():
    if not run.use_checkout_sources():
        return 2
    check_failures_counted()
    check_self_times()
    check_metric_names()
    for message in FAILURES:
        print(f"selftest FAILED: {message}")
    if FAILURES:
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
