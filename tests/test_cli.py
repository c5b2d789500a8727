"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import engelhomology
from engelhomology.cli import main
from engelhomology.engel import transcribed_formula
from engelhomology.exact import parse_fraction
from engelhomology.liealg import family
from engelhomology.weighted import homology_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# families / jacobi


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0] == "family-1: parameters C143, C144, C234, C244"


def test_families_show_examples(capsys):
    _, out4, _ = run(capsys, "families", "show", "4")
    assert "[y2,y4] = C244 y4" in out4
    _, out1, _ = run(capsys, "families", "show", "1")
    assert "[y3,y4] = 0" in out1


def test_jacobi_family_pass(capsys):
    code, out, _ = run(capsys, "jacobi", "--family", "2")
    assert code == 0
    assert out.strip().endswith("verdict: PASS")


def test_jacobi_ansatz_open(capsys):
    code, out, _ = run(capsys, "jacobi", "--ansatz")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("ansatz parameters: C141,")
    assert len([l for l in lines if l.startswith("J(")]) == 16
    assert lines[-1] == "verdict: OPEN"


def test_jacobi_inline(tmp_path, capsys):
    good = tmp_path / "family1.json"
    good.write_text(json.dumps(family(1).to_json()), encoding="utf-8")
    code, out, _ = run(capsys, "jacobi", "--inline", str(good))
    assert code == 0 and "verdict: PASS" in out

    bad = tmp_path / "notlie.json"
    bad.write_text(json.dumps({
        "basis_dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1", "0"]},
            {"i": 1, "j": 3, "coeffs": ["0", "0", "0", "1"]},
            {"i": 2, "j": 3, "coeffs": ["0", "0", "0", "1"]},
            {"i": 3, "j": 4, "coeffs": ["1", "0", "0", "0"]},
        ],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "jacobi", "--inline", str(bad))
    assert code == 2
    assert "verdict: FAIL" in out
    assert any(line.startswith("J(") for line in out.split("\n"))
    # a coefficient may also be a JSON integer
    doc = json.loads(bad.read_text(encoding="utf-8"))
    for entry in doc["brackets"]:
        entry["coeffs"] = [int(c) for c in entry["coeffs"]]
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "jacobi", "--inline", str(bad)) == (2, out, "")


# ---------------------------------------------------------------------------
# betti


def _rows(table_text, label):
    for line in table_text.split("\n"):
        if line.strip().startswith(label):
            return line.split(":")[1].split()
    raise AssertionError(f"no {label} row in {table_text!r}")


def test_betti_tangent_reports(capsys):
    code, out, _ = run(capsys, "betti", "--family", "1",
                       "--complex", "tangent", "--weights", "0,1,2")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0].startswith("tangent weight 0 family-1")
    assert _rows(blocks[0], "KerD") == ["1", "4", "4", "1", "0"]
    assert _rows(blocks[1], "KerD") == ["6", "19", "19", "6", "0"]
    assert _rows(blocks[2], "Bett") == ["0", "1", "2", "1", "0", "0"]


def test_betti_strata_example(capsys):
    code, out, _ = run(capsys, "betti", "--family", "4",
                       "--complex", "cotangent", "--weights", "-5",
                       "--specialize", "C244=0")
    assert code == 0
    assert _rows(out, "KerD")[1] == "28"


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--family", "6",
                       "--complex", "extended", "--weights", "-2",
                       "--format", "csv")
    assert code == 0
    assert out == ("m,dim,ker,betti\n"
                   "1,4,4,1\n"
                   "2,17,14,2\n"
                   "3,28,16,1\n"
                   "4,22,7,1\n"
                   "5,8,2,2\n"
                   "6,1,1,1\n")


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--family", "1",
                       "--complex", "cotangent", "--weights", "-5,-6",
                       "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["weight"] for d in docs] == [-5, -6]
    for doc in docs:
        assert doc["algebra"] == {"id": 1, "source": "family",
                                  "params": ["C143", "C144", "C234", "C244"]}
        assert doc["mode"] == {"seed": 1729, "trials": 3,
                               "variant": "randomized"}
    assert docs[0]["rows"][1] == {"m": 2, "dim": 28, "ker": 27, "betti": 19}
    assert docs[1]["euler"] == 15


def test_betti_paper_table_alias(capsys):
    _, out, _ = run(capsys, "betti", "--family", "2",
                    "--complex", "cotangent", "--weights", "-5",
                    "--paper-table")
    assert "(caption weight 5)" in out.split("\n")[0]


def test_betti_deterministic(capsys):
    args = ("betti", "--family", "3", "--complex", "tangent",
            "--weights", "2", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_betti_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "betti", "--family", "1",
                       "--complex", "tangent", "--weights", "0",
                       "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("m,dim,ker,betti\n")


def test_reused_parser_leaks_no_option(tmp_path, capsys):
    """The parser is built once per process; options of earlier calls,
    and a usage error, leave a plain call as a fresh interpreter runs it."""
    plain = ["betti", "--family", "2", "--complex", "tangent",
             "--weights", "1"]
    assert main(plain[:-1] + ["0", "--mode", "symbolic", "--format",
                              "csv", "--output", str(tmp_path / "r")]) == 0
    assert main(plain + ["--mode", "specialized", "--specialize",
                         "C143=1,C144=2,C234=3,C244=5", "--paper-table",
                         "--seed", "7", "--trials", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--family", "2", "--type", "3", "--complex",
              "tangent", "--weights", "1"])
    assert exc.value.code == 1
    capsys.readouterr()
    src = Path(engelhomology.__file__).resolve().parents[1]
    # the JSON document shows the mode, seed and trials as well
    for argv in (plain, plain + ["--format", "json"]):
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from engelhomology.cli "
             "import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
            check=False)
        assert (code, out.encode(), err.encode()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and out


def test_betti_inline_algebra(tmp_path, capsys):
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(family(5).to_json()), encoding="utf-8")
    code, out, _ = run(capsys, "betti", "--inline", str(path),
                       "--complex", "tangent", "--weights", "0",
                       "--format", "csv")
    assert code == 0
    assert out.split("\n")[1] == "0,1,1,1"


def test_betti_symbolic_equals_randomized(capsys):
    argv = ("betti", "--family", "1", "--complex", "cotangent",
            "--weights", "-5", "--format", "json")
    code, out, _ = run(capsys, *argv, "--mode", "symbolic")
    assert code == 0
    symbolic = json.loads(out)
    _, out, _ = run(capsys, *argv)
    randomized = json.loads(out)
    assert symbolic[0]["mode"] == {"variant": "symbolic-generic"}
    assert symbolic[0]["rows"] == randomized[0]["rows"]


def test_betti_type_json_source(capsys):
    code, out, _ = run(capsys, "betti", "--type", "3", "--complex",
                       "tangent", "--weights", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["algebra"] == {"id": 3, "source": "classType"}


def test_labels_without_catalogue_index_are_custom(tmp_path, capsys):
    # a basis change appends "~" to the label, and an inline algebra is
    # named after its file: neither label carries a catalogue index
    g = family(2).specialize({"C143": 2, "C144": 3, "C234": 4, "C244": 5})
    T = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    report = homology_report("extended", -2, g.change_basis(T))
    assert report.to_json()["algebra"] == {"id": "family-2~",
                                           "source": "custom"}
    assert report.rows == homology_report("extended", -2, g).rows
    for stem in ("family-x", "type-x"):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(family(5).to_json()), encoding="utf-8")
        code, out, _ = run(capsys, "betti", "--inline", str(path),
                           "--complex", "tangent", "--weights", "0",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["algebra"]["source"] == "custom"


def test_inline_file_name_is_not_a_catalogue_source(tmp_path, capsys):
    # the catalogue source comes from --family/--type, never from a file
    # name: family 5's constants in family-2.json stay a custom algebra
    path = tmp_path / "family-2.json"
    path.write_text(json.dumps(family(5).to_json()), encoding="utf-8")
    argv = ("--complex", "tangent", "--weights", "0", "--format", "json")
    code, out, _ = run(capsys, "betti", "--inline", str(path), *argv)
    assert code == 0
    assert json.loads(out)[0]["algebra"] == {
        "source": "custom", "id": "family-2",
        "params": list(family(5).params)}
    code, out, _ = run(capsys, "betti", "--family", "2", *argv)
    assert json.loads(out)[0]["algebra"]["source"] == "family"


# ---------------------------------------------------------------------------
# elc / foliation


def test_elc_type_plain_prints_the_coefficient(capsys):
    code, out, _ = run(capsys, "elc", "--type", "1")
    assert code == 0
    assert parse_fraction(out.strip()) == transcribed_formula(1)


def test_elc_symbolic_matching_type(capsys):
    code, out, _ = run(capsys, "elc", "--type", "1", "--symbolic")
    assert code == 0
    assert out == "p4*Det(3,4)^3\n"


def test_elc_symbolic_mismatch_type9(capsys):
    code, out, _ = run(capsys, "elc", "--type", "9", "--symbolic")
    assert code == 0
    assert "closed-form check: MISMATCH" in out
    assert "corrected:  -(b-1)*Det(2,4)*Det(3,4)*" \
           "(p3*Det(2,4)+b*(p4*Det(1,4)-p2*Det(3,4)))" in out


def test_elc_witness_nonzero(capsys):
    code, out, _ = run(capsys, "elc", "--type", "2",
                       "--witness", "p=0,0,0,1;q=1,0,1,0",
                       "--param", "a=2")
    assert code == 0
    assert out.strip().split("\n") == ["E-l-C = -1", "NONZERO"]


def test_elc_witness_zero_fails(capsys):
    code, out, _ = run(capsys, "elc", "--type", "5",
                       "--witness", "p=0,0,0,1;q=1,0,1,0",
                       "--param", "a=2,b=3")
    assert code == 2
    assert "ZERO" in out


W6 = "p=0,0,0,1;q=1,1,1,0"
SPECIALIZED = ("betti", "--family", "2", "--complex", "tangent",
               "--weights", "0", "--mode", "specialized", "--format", "json")


def test_repeated_param_and_specialize_merge(capsys):
    code, out, _ = run(capsys, "elc", "--type", "6", "--param", "a=2",
                       "--param", "b=3", "--witness", W6)
    assert (code, out) == (0, "E-l-C = -4\nNONZERO\n")
    code, split, _ = run(capsys, *SPECIALIZED,
                         "--specialize", "C143=2,C144=3",
                         "--specialize", "C234=4,C244=5")
    _, joined, _ = run(capsys, *SPECIALIZED,
                       "--specialize", "C143=2,C144=3,C234=4,C244=5")
    assert code == 0
    assert split == joined


@pytest.mark.parametrize("argv,name", [
    (("elc", "--type", "6", "--param", "a=2,a=5,b=3", "--witness", W6),
     "a"),
    (("elc", "--type", "6", "--param", "a=2,b=3", "--param", "b=5",
      "--witness", W6), "b"),
    (SPECIALIZED + ("--specialize", "C143=2,C144=3,C234=4,C244=5",
                    "--specialize", "C144=1"), "C144"),
])
def test_a_name_given_twice_exits_1(argv, name, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"engelhomology: error: parameter {name} is given twice\n"


@pytest.mark.parametrize("witness", [
    W6 + ";p=1,1,1,1",
    W6 + ";q=0,0,1,0",
    W6 + ";x",
    "p=0,0,0,1;q",
])
def test_witness_with_a_repeated_or_bare_piece_exits_1(witness, capsys):
    code, out, err = run(capsys, "elc", "--type", "6", "--param", "a=2,b=3",
                         "--witness", witness)
    assert (code, out) == (1, "")
    assert err == ("engelhomology: error: witness needs p=...;q=..., got "
                   f"{witness!r}\n")


def test_foliation_table(capsys):
    code, out, _ = run(capsys, "foliation", "--family", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "span(C234*y1 - y2)"
    assert lines[2] == "containment re-check: PASS"


def test_foliation_json_family3(capsys):
    code, out, _ = run(capsys, "foliation", "--family", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"] == "span(C244*y1 - C144*y2)"
    assert doc["containment"] is True
    assert "note" in doc


def test_foliation_table_note_family3(capsys):
    code, out, _ = run(capsys, "foliation", "--family", "3")
    assert code == 0
    assert out.strip().split("\n")[-1] == (
        "note: direction has no parameter-free closed form; the "
        "coefficients depend on the family parameters")


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("argv", [
    ["betti", "--family", "1", "--complex", "tangent"],
    ["jacobi", "--ansatz", "--family", "1"],
    ["jacobi", "--family", "1", "--type", "1"],
    ["jacobi"],
], ids=["betti-no-weights", "jacobi-ansatz-and-family",
        "jacobi-family-and-type", "jacobi-bare"])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("argv,message", [
    (("elc", "--type", "13"), "type index out of range: 13"),
    (("betti", "--family", "7", "--complex", "tangent", "--weights", "0"),
     "family index out of range: 7"),
], ids=["type-13", "family-7"])
def test_catalogue_index_out_of_range_exits_2(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"constraint violation: {message}\n")


def test_bad_weights_exit_1(capsys):
    code, _, err = run(capsys, "betti", "--family", "1",
                       "--complex", "tangent", "--weights", "x")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("weights", [",", ""])
def test_empty_weight_list_exits_1(weights, capsys):
    code, out, err = run(capsys, "betti", "--family", "1",
                         "--complex", "tangent", "--weights", weights)
    assert (code, out) == (1, "")
    assert "no weights given" in err


@pytest.mark.parametrize("argv,unknown,known", [
    (("betti", "--family", "2", "--complex", "tangent", "--weights", "0",
      "--specialize", "C414=0", "--format", "json"),
     "C414", "C143, C144, C234, C244"),
    (("betti", "--type", "2", "--param", "z=1", "--complex", "tangent",
      "--weights", "0"), "z", "a"),
    (("elc", "--type", "2", "--param", "z=1", "--symbolic"), "z", "a"),
])
def test_unknown_parameter_name_exits_1(argv, unknown, known, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unknown parameter {unknown} " in err
    assert f"(its parameters: {known})" in err


@pytest.mark.parametrize("argv", [
    ("betti", "--family", "5", "--param", "C142=1", "--complex", "tangent",
     "--weights", "0"),
    ("betti", "--inline", "{inline}", "--param", "z=1", "--complex",
     "tangent", "--weights", "0"),
    ("betti", "--inline", "{inline}", "--param", "C142=1", "--complex",
     "tangent", "--weights", "0"),
    ("jacobi", "--inline", "{inline}", "--param", "C142=1"),
    ("foliation", "--inline", "{inline}", "--param", "C142=1"),
])
def test_param_outside_type_selectors_exits_1(argv, tmp_path, capsys):
    inline = tmp_path / "f5.json"
    inline.write_text(json.dumps(family(5).to_json()), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(inline=inline) for a in argv))
    assert (code, out) == (1, "")
    assert "--param applies to --type selectors" in err


def test_constraint_violation_exits_2(capsys):
    code, _, err = run(capsys, "elc", "--type", "5",
                       "--param", "a=0,b=1", "--symbolic")
    assert code == 2
    assert "constraint violation" in err


@pytest.mark.parametrize("argv", [
    ("betti", "--family", "2", "--complex", "tangent", "--weights", "0",
     "--mode", "specialized", "--specialize", "C144=1/0"),
    ("betti", "--type", "9", "--param", "a=1/0", "--complex", "tangent",
     "--weights", "0"),
    ("elc", "--type", "1", "--witness", "p=1,0,0,0;q=0,1,0,1/0"),
    ("betti", "--inline", "{inline}", "--complex", "tangent",
     "--weights", "0"),
])
def test_zero_denominator_in_input_exits_1(argv, tmp_path, capsys):
    inline = tmp_path / "zero.json"
    inline.write_text(json.dumps({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["0", "0", "1/0", "0"]}]}),
        encoding="utf-8")
    code, _, err = run(capsys, *(a.format(inline=inline) for a in argv))
    assert code == 1
    assert "zero denominator" in err


@pytest.mark.parametrize("document", [
    json.dumps({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["0", "0", "(" * 3000 + "1" + ")" * 3000,
                                    "0"]}]}),
    '{"basis_dim": 4, "brackets": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["coefficient", "json"])
def test_deeply_nested_input_exits_1(document, tmp_path, capsys):
    # a coefficient or a JSON file nested past the recursion limit
    inline = tmp_path / "nested.json"
    inline.write_text(document, encoding="utf-8")
    code, _, err = run(capsys, "jacobi", "--inline", str(inline))
    assert code == 1
    assert err.startswith("engelhomology: error: ")
    assert "nested too deeply" in err


@pytest.mark.parametrize("document, message", [
    ([{"i": 1, "j": 2, "coeffs": ["1", "0", "0", "0"]}],
     "inline algebra must be a JSON object"),
    ({"basis_dim": 4, "brackets": [[1, 2, ["1", "0", "0", "0"]]]},
     "each bracket entry must be a JSON object"),
    ({"basis_dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": "1000"}]},
     "inline algebra: bracket (1,2) coeffs must be a JSON list"),
    ({"basis_dim": 4, "brackets": [], "nonzero": "C144"},
     "inline algebra: nonzero must be a JSON list"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["a", "0", "0", "0"]},
        {"i": 1, "j": 2, "coeffs": ["0", "1", "0", "0"]}]},
     "bracket (1,2) is given twice"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["a", "0", "0", "0"]}],
      "nonzero": ["a", "b"]},
     "nonzero: unknown parameter b of bad (its parameters: a)"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1.5, "j": 2, "coeffs": ["1", "0", "0", "0"]}]},
     "inline algebra: bracket i and j must be JSON integers, not [1.5, 2]"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": True, "coeffs": ["1", "0", "0", "0"]}]},
     "inline algebra: bracket i and j must be JSON integers, not [1, true]"),
    ({"basis_dim": 4, "brackets": [
        {"i": "1", "j": 2, "coeffs": ["1", "0", "0", "0"]}]},
     'inline algebra: bracket i and j must be JSON integers, not ["1", 2]'),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": [None, "0", "0", "0"]}]},
     "bracket (1,2): coefficient null is neither an integer nor a string"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["1", 0.5, "0", "0"]}]},
     "bracket (1,2): coefficient 0.5 is neither an integer nor a string"),
    ({"basis_dim": 4, "brackets": [
        {"i": 1, "j": 2, "coeffs": ["1", "0", False, "0"]}]},
     "bracket (1,2): coefficient false is neither an integer nor a string"),
    ({"basis_dim": 4, "brackets": [{"j": 2, "coeffs": ["1", "0", "0", "0"]}]},
     'inline algebra: a bracket entry has no "i" key'),
    ({"basis_dim": 4, "brackets": [{"i": 1, "coeffs": ["1", "0", "0", "0"]}]},
     'inline algebra: a bracket entry has no "j" key'),
    ({"basis_dim": 4, "brackets": [{"i": 1, "j": 2}]},
     'inline algebra: a bracket entry has no "coeffs" key'),
], ids=["not-object", "entry-not-object", "coeffs-not-list",
        "nonzero-not-list", "repeated-entry", "unknown-nonzero",
        "float-index", "bool-index", "string-index", "null-coefficient",
        "float-coefficient", "bool-coefficient", "missing-i", "missing-j",
        "missing-coeffs"])
def test_malformed_inline_algebra_exits_1(document, message, tmp_path,
                                          capsys):
    inline = tmp_path / "bad.json"
    inline.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "jacobi", "--inline", str(inline))
    assert (code, out) == (1, "")
    assert err == f"engelhomology: error: {message}\n"


def test_missing_parameter_exits_3(capsys):
    code, _, err = run(capsys, "betti", "--family", "1",
                       "--complex", "tangent", "--weights", "0",
                       "--mode", "specialized", "--specialize", "C144=1")
    assert code == 3
    assert "arithmetic error" in err
