"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps, from outside the package, the module-level functions
each layer of `engelhomology` calls into.  Every wrapped call records a
span (name, start, end, parent, item); a few wrappers also add exact
work counts.  Spans stay in memory and are written out when the run
ends.  A layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

import json
import time
from math import comb

# the span names; each is the prefix of its per-layer metrics
LAYERS = (
    "cli",
    "liealg",
    "weighted.basis",
    "weighted.assemble",
    "weighted.clear",
    "superalg.bracket",
    "exact.rank_modp",
    "exact.rank_int",
    "exact.rank_bareiss",
    "engel.elc",
    "engel.flag",
    "engel.foliation",
    "engel.formula",
    "engel.witness",
)

ROOT = "item"


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, item]
        self.counts = {}
        self._stack = []
        self._item = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self._item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, after):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def run_item(self, ident, fn):
        """Run one benchmark item under a root span."""
        self._item = ident
        try:
            return self._wrap(ROOT, fn)()
        finally:
            self._item = None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, fn, wrapper):
        """Rebind every module-level name that refers to `fn`."""
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._patch(mod, attr, wrapper)

    def install(self):
        from engelhomology import cli, engel, exact, liealg, weighted

        modules = (cli, engel, exact, liealg, weighted)

        def span(name, fn, after=None):
            self._patch_everywhere(modules, fn, self._wrap(name, fn, after))

        span("cli", cli.main)
        span("weighted.assemble", weighted.homology_report)
        span("weighted.assemble", weighted.boundary_matrix)
        span("weighted.basis", weighted.chain_basis, _count_words)
        span("weighted.clear", weighted._cleared_matrix, _count_nnz)
        assembly = weighted._BoundaryBuilder
        self._patch(assembly, "matrix",
                    self._counter(assembly.matrix, _count_lookups))
        # only the references the boundary assembly calls through; the
        # brackets' internal calls to each other are not separate spans
        for fn in (weighted.schouten_bracket, weighted.form_bracket,
                   weighted.extended_bracket):
            self._patch_everywhere((weighted,), fn,
                                   self._wrap("superalg.bracket", fn))
        span("exact.rank_modp", exact._rank_randomized,
             _cells("exact.rank_modp", nnz=True))
        self._patch_everywhere((exact,), exact._rank_mod_p, self._counter(
            exact._rank_mod_p, _count_elim))
        span("exact.rank_int", exact._rank_specialized,
             _cells("exact.rank_int"))
        span("exact.rank_bareiss", exact._rank_symbolic,
             _cells("exact.rank_bareiss"))
        span("liealg", liealg.family)
        span("liealg", liealg.class_type)
        algebra = liealg.LieAlgebra4
        for attr in ("specialize", "change_basis"):
            self._patch(algebra, attr,
                        self._wrap("liealg", getattr(algebra, attr)))
        span("engel.elc", engel.elc)
        span("engel.flag", engel.engel_flag_check)
        span("engel.flag", engel._plane_flags)
        span("engel.foliation", engel.characteristic_foliation)
        span("engel.foliation", engel.foliation_containment)
        span("engel.formula", engel.elc_formula_report)
        span("engel.witness", engel.verify_witness)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "item"],
            "names": names,
            "spans": [[index[n], s, e, p, item]
                      for n, s, e, p, item in self.spans],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_words(tracer, args, basis):
    tracer.add("weighted.basis.words", basis.dimension)


def _count_nnz(tracer, args, matrix):
    tracer.add("weighted.assemble.nnz", len(matrix.entries))


def _count_lookups(tracer, args, matrix):
    # every word of length m looks up each of its C(m, 2) letter pairs
    m = args[2]
    tracer.add("superalg.bracket.lookups", matrix.cols * comb(m, 2))


def _count_elim(tracer, args, rank):
    tracer.add("exact.rank_modp.elims")


def _cells(layer, nnz=False):
    def after(tracer, args, rank):
        M = args[0]
        tracer.add(f"{layer}.cells", M.rows * M.cols)
        if nnz:
            tracer.add(f"{layer}.nnz", len(M.entries))
    return after
