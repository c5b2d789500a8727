"""The benchmark tracer hooks the package by name; renaming a hooked
function must fail here rather than in a traced benchmark run."""

import sys
from pathlib import Path

from engelhomology import engel, exact
from engelhomology.exact import (
    Randomized,
    Specialized,
    SymbolicGeneric,
    TensorMatrix,
    matrix_rank,
)
from engelhomology.liealg import class_type, family
from engelhomology.weighted import homology_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_tracer_installs_records_and_uninstalls():
    originals = (exact._rank_specialized, exact._rank_randomized,
                 exact._rank_mod_p, engel._plane_flags,
                 engel.engel_flag_check)
    M = TensorMatrix.from_rows([[1, 2], [3, 4]])
    with spans.Tracer() as tracer:
        tracer.run_item("rank", lambda: (
            matrix_rank(M, Specialized({})), matrix_rank(M, Randomized())))
        tracer.run_item("witness",
                        lambda: engel.verify_witness(1, *engel.WITNESSES[1]))
        tracer.run_item("flag", lambda: engel.engel_flag_check(
            class_type(1), engel.PlanePair(*engel.WITNESSES[1])))
    assert (exact._rank_specialized, exact._rank_randomized,
            exact._rank_mod_p, engel._plane_flags,
            engel.engel_flag_check) == originals
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    # the parameter-free Randomized rank runs the exact rank inside it
    assert calls["exact.rank_modp"] == 1
    assert calls["exact.rank_int"] == 2
    assert calls["engel.witness"] == 1
    assert calls["engel.flag"] == 2
    assert tracer.counts["exact.rank_int.cells"] == 8


def test_tracer_sees_every_rank_layer_of_the_reports():
    # the traced per-layer figures read M.rows, M.cols and M.entries of
    # the matrix each rank layer receives
    g = family(1)
    point = {p: 2 for p in g.params}
    # the symbolic report is one whose d_3 neither the squeeze nor a
    # constant (co)cycle proves, so that it reaches Bareiss
    reports = {"randomized": ("tangent", 0, g, Randomized()),
               "specialized": ("tangent", 0, g, Specialized(point)),
               "symbolic": ("extended", -2, family(3), SymbolicGeneric())}
    with spans.Tracer() as tracer:
        for ident, args in reports.items():
            tracer.run_item(ident, lambda args=args: homology_report(*args))
    names = {ident: {s[0] for s in tracer.spans if s[4] == ident}
             for ident in reports}
    assert "exact.rank_modp" in names["randomized"]
    assert "exact.rank_int" in names["specialized"]
    assert "exact.rank_bareiss" in names["symbolic"]
    # every mode, Bareiss included, ranks the raw matrix: nothing clears
    # denominators
    assert all("weighted.clear" not in layers for layers in names.values())
    for layer in ("exact.rank_modp", "exact.rank_int", "exact.rank_bareiss"):
        assert tracer.counts[f"{layer}.cells"] > 0
    assert tracer.counts["exact.rank_modp.nnz"] > 0
