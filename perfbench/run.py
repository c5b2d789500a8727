"""Benchmark runner for engelhomology.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: a pass runs the
workload's items one after another in a fresh interpreter, so that
per-process caches cost what they cost a CLI user and no pass reuses
state from an earlier one.  Passes run one at a time and repeat while
the next one is predicted to end within --seconds (at least one).
Set-up is timed in a fresh interpreter after every pass.  A traced run
alternates untraced and traced passes.  Every item's output is checked.

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}, with the end-to-end metrics when
--trace 0 and the per-layer metrics when --trace 1.  A copy with a run
stamp goes to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 7
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# a fresh interpreter: import the package (with cli) and build the six
# families and twelve classified types
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import engelhomology, engelhomology.cli
from engelhomology.liealg import class_type, family
algebras = [family(n) for n in range(1, 7)]
algebras += [class_type(n) for n in range(1, 13)]
print(time.perf_counter() - t0)
"""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads():
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))


def setup_probe():
    """Set-up seconds measured inside one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# run stamp


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_stamp():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over the items: latencies and failures in item order,
    the client's peak memory and, when traced, its layer figures."""

    __slots__ = ("traced", "latencies", "failures", "rss_kb", "selfs",
                 "counts")

    def __init__(self, traced, latencies=(), failures=(), rss_kb=0,
                 selfs=None, counts=None):
        self.traced = traced
        self.latencies = list(latencies)
        self.failures = [tuple(f) for f in failures]
        self.rss_kb = rss_kb
        self.selfs = selfs or {}
        self.counts = counts or {}

    @property
    def wall(self):
        return sum(self.latencies)

    def to_json(self):
        return {name: getattr(self, name) for name in self.__slots__}


def run_pass(items, tracer=None):
    """Run every item once; a failing or raising item does not abort."""
    result = Pass(tracer is not None)
    clock = time.perf_counter
    for item in items:
        t0 = clock()
        try:
            if tracer is None:
                out = item.run()
            else:
                out = tracer.run_item(item.ident, item.run)
        except Exception:
            result.latencies.append(clock() - t0)
            result.failures.append((item.ident, traceback.format_exc()))
            continue
        result.latencies.append(clock() - t0)
        try:
            ok = item.check(out, item.want)
        except Exception:
            ok = False
        if not ok:
            result.failures.append((item.ident, "output differs from the "
                                    "expected value"))
    return result


def traced_pass(items):
    """A pass with the tracer installed, and the tracer."""
    tracer = spans.Tracer()
    with tracer:
        result = run_pass(items, tracer)
    result.selfs = tracer.self_times()
    result.counts = dict(tracer.counts)
    return result, tracer


def client(args):
    """One pass in this interpreter, started fresh by `spawn_pass`.

    Writes the pass to the file named by --client and, when traced, its
    spans beside it.
    """
    import workloads
    items = workloads.build(args.workload, args.seed)
    out = Path(args.client)
    if args.trace:
        result, tracer = traced_pass(items)
        tracer.dump(out.with_suffix(".spans.json"))
    else:
        result = run_pass(items)
    result.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh)
    return 0


def spawn_pass(args, traced, index):
    """Run one pass in a fresh interpreter and return it."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{stem}.pass{index}.json"
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(int(traced)), "--client", str(out)],
                   cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    out.unlink()
    return Pass(**doc)


def run_passes(args):
    """Whole passes, each in a fresh interpreter and each followed by a
    set-up probe, while the next is predicted to fit in --seconds.

    With --trace 1, passes alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(spawn_pass(args, traced, len(passes)))
        setup_times.append(setup_probe())
        now = time.perf_counter()
        if args.trace and len(passes) < 2:
            continue
        if now - start + (now - t0) > args.seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe())
    return passes, setup_times


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten
    items beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes, setup_times):
    """Medians over the untraced passes of each pass's own figures."""
    plain = [p for p in passes if not p.traced]
    wall = statistics.median(p.wall for p in plain)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(plain[0].latencies) / wall, "1/s"),
        "item_p50_s": (statistics.median(
            statistics.median(p.latencies) for p in plain), "s"),
        "item_tail_s": (statistics.median(
            tail(p.latencies)[0] for p in plain), "s"),
        "peak_rss_mb": (max(p.rss_kb for p in plain) / 1024.0, "MB"),
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    n = len(traced)

    def calls(name):
        return sum(p.selfs.get(name, (0, 0.0))[0] for p in traced) / n

    def self_s(name):
        return sum(p.selfs.get(name, (0, 0.0))[1] for p in traced) / n

    def count(key):
        return sum(p.counts.get(key, 0) for p in traced) / n

    out = {}
    for name in spans.LAYERS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["weighted.basis.words"] = (count("weighted.basis.words"), "count")
    out["weighted.assemble.nnz"] = (count("weighted.assemble.nnz"), "count")
    lookups = count("superalg.bracket.lookups")
    evaluations = calls("superalg.bracket")
    out["superalg.bracket.lookups"] = (lookups, "count")
    out["superalg.bracket.hit_ratio"] = (
        1.0 - evaluations / lookups if lookups else 0.0, "ratio")
    for layer in ("exact.rank_modp", "exact.rank_int", "exact.rank_bareiss"):
        out[f"{layer}.cells"] = (count(f"{layer}.cells"), "count")
    out["exact.rank_modp.nnz"] = (count("exact.rank_modp.nnz"), "count")
    rank_calls = calls("exact.rank_modp")
    out["exact.rank_modp.elims_per_call"] = (
        count("exact.rank_modp.elims") / rank_calls if rank_calls else 0.0,
        "count/call")
    # per-pass means, like the layer figures, so that the layers' self
    # times sum to at most trace.wall_s; every pass starts equally cold
    traced_wall = statistics.fmean(p.wall for p in traced)
    plain_wall = statistics.fmean(p.wall for p in passes if not p.traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one pass in this interpreter and write it to this file
    ap.add_argument("--client", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_sources():
    """Import engelhomology from this checkout's src/, or report why not."""
    if not (SRC / "engelhomology" / "__init__.py").is_file():
        print(f"perfbench: no engelhomology sources under {SRC}",
              file=sys.stderr)
        return False
    cap_threads()
    sys.path.insert(0, str(SRC))
    import engelhomology
    if Path(engelhomology.__file__).resolve().parent.parent != SRC:
        print("perfbench: engelhomology imported from outside the checkout",
              file=sys.stderr)
        return False
    return True


def main(argv=None):
    if not use_checkout_sources():
        return 2
    args = parse_args(argv)
    if args.client:
        return client(args)
    import workloads

    items = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    passes, setup_times = run_passes(args)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_times)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    tail_pct = tail(passes[0].latencies)[1]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "stamp": run_stamp(),
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "failed": len(p.failures), "rss_kb": p.rss_kb,
                    "latencies_s": p.latencies}
                   for p in passes],
        "items": [item.ident for item in items],
        "items_per_pass": len(items),
        "item_tail": {"percentile": tail_pct, "items": len(items)},
        "setup_s": setup_times,
        "fail_ratio": len(failures) / attempted,
        "failures": [{"item": i, "error": e} for i, e in failures[:20]],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for ident, err in failures[:5]:
        print(f"FAILED {ident}: {err.strip().splitlines()[-1]}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(items)} items, fail_ratio {record['fail_ratio']:.4g}, "
          f"item_tail_s at p{tail_pct:.1f} of {len(items)} items")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
