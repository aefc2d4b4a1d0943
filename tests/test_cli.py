"""End-to-end tests of the command-line interface."""

import json
import pathlib

import pytest

from trilie.catalog import catalog_names, load_catalog
from trilie.cli import main
from trilie.derivations import (
    HIGHER,
    LIE_TRIPLE_HIGHER,
    derivation_space,
    lie_derivation_space,
    lie_triple_derivation_space,
    sample_sequence,
)
from trilie.workspace import sequence_json, triangular_document

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "trilie" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", catalog_names())
def test_every_shipped_corpus_file_passes_check(name, capsys):
    code, report, _ = run_json(capsys, "check", "--builtin", name)
    assert code == 0
    assert report["ok"] is True
    assert all(obj["ok"] for obj in report["objects"])


def test_shipped_corpus_files_match_regeneration():
    for name in catalog_names():
        expected = json.dumps(triangular_document(load_catalog(name), name),
                              sort_keys=True, indent=2) + "\n"
        shipped = (CORPUS_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert shipped == expected, name


def test_check_via_input_file(tmp_path, capsys):
    path = write_doc(tmp_path, triangular_document(load_catalog("tri_q_q_q"), "t"))
    code, report, _ = run_json(capsys, "check", "--input", path)
    assert code == 0 and report["ok"]


def test_check_names_the_broken_quadruple(tmp_path, capsys):
    doc = triangular_document(load_catalog("tri_t2_plane_q"), "t")
    # make the nilpotent direction of the A corner square to the first
    # idempotent instead of 0: unit laws survive, associativity breaks
    doc["algebras"]["a"]["table"][1][1] = ["1", "0", "0"]
    path = write_doc(tmp_path, doc)
    code, report, _ = run_json(capsys, "check", "--input", path)
    assert code == 1
    assert report["ok"] is False
    bad = [o for o in report["objects"] if not o["ok"]]
    violation = bad[0]["violations"][0]
    assert violation["law"] == "associativity"
    assert len(violation["where"]) == 4


def test_input_errors_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "check", "--builtin", "nope")
    assert code == 2 and "unknown builtin" in err
    bad = tmp_path / "broken.json"
    bad.write_text('{"algebras": [')
    code, out, err = run(capsys, "check", "--input", str(bad))
    assert code == 2 and ":1:" in err
    code, out, err = run(capsys, "check")
    assert code == 2 and "required" in err
    code, out, err = run(capsys, "check", "--builtin", "tri_q_q_q",
                         "--input", str(bad))
    assert code == 2 and "not both" in err
    doc = triangular_document(load_catalog("tri_q_q_q"), "t")
    doc["algebras"]["a"]["unit"] = [0.5]
    code, out, err = run(capsys, "check", "--input", write_doc(tmp_path, doc))
    assert code == 2 and "algebras.a.unit[0]" in err


def test_target_selection(tmp_path, capsys):
    doc = triangular_document(load_catalog("tri_q_q_q"), "first")
    doc["triangulars"]["second"] = {"a": "a", "m": "m", "b": "b"}
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, "center", "--input", path)
    assert code == 2 and "--target" in err
    code, report, _ = run_json(capsys, "center", "--input", path,
                               "--target", "second")
    assert code == 0 and report["target"] == "second"
    code, out, err = run(capsys, "center", "--input", path, "--target", "ghost")
    assert code == 2 and "unknown triangular" in err


def test_center_report_values(capsys):
    code, report, _ = run_json(capsys, "center", "--builtin", "tri_qq_plane_q")
    assert code == 0
    assert report["dim"] == 1
    assert report["elements"] == [{"a_part": ["1", "1"], "b_part": ["1"]}]
    assert report["transfer_matrix"] == [["1"]]


def test_spaces_report_dimensions(capsys):
    tri = load_catalog("tri_q_q_q")
    code, report, _ = run_json(capsys, "spaces", "--builtin", "tri_q_q_q")
    assert code == 0
    spaces = report["spaces"]
    assert spaces["derivation"]["dim"] == derivation_space(tri.algebra).dim
    assert spaces["lie-derivation"]["dim"] == lie_derivation_space(tri.algebra).dim
    assert spaces["lie-triple-derivation"]["dim"] == \
        lie_triple_derivation_space(tri.algebra).dim
    assert len(spaces["derivation"]["basis"]) == spaces["derivation"]["dim"]


def test_extend_reports_strictness(capsys):
    code, report, _ = run_json(capsys, "extend", "--builtin", "tri_q_plane_qq")
    assert code == 0
    assert (report["strict_a"], report["strict_b"]) == (True, False)
    assert report["extended_dim"] == 6 and report["base_dim"] == 5
    code, report, _ = run_json(capsys, "extend", "--builtin", "tri_q_q_q")
    assert (report["strict_a"], report["strict_b"]) == (False, False)


def test_sample_is_deterministic_and_verified(capsys):
    args = ("sample", "--builtin", "tri_dual_dual_dual", "--levels", "3",
            "--seed", "5")
    code1, out1, _ = run(capsys, *args, "--json")
    code2, out2, _ = run(capsys, *args, "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    assert report["ok"] and report["violations"] == []
    assert len(report["sequence"]["levels"]) == 4
    assert report["sequence"]["kind"] == "lie-higher"


def test_sample_other_kinds(capsys):
    code, report, _ = run_json(capsys, "sample", "--builtin", "tri_q_q_q",
                               "--kind", "lie-triple-higher", "--levels", "2")
    assert code == 0 and report["sequence"]["kind"] == "lie-triple-higher"


@pytest.mark.parametrize("command", ["sample", "verify", "decompose", "probe"])
def test_negative_levels_is_an_input_error(command, capsys):
    code, out, err = run(capsys, command, "--builtin", "tri_q_q_q", "--levels", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--levels" in err


def test_verify_sampled_and_stored(tmp_path, capsys):
    code, report, _ = run_json(capsys, "verify", "--builtin", "tri_qq_plane_qq",
                               "--levels", "2", "--seed", "1")
    assert code == 0 and report["ok"]

    tri = load_catalog("tri_q_q_q")
    doc = triangular_document(tri, "t")
    good = sample_sequence(tri.algebra, HIGHER, 2, 3)
    doc["sequences"]["good"] = sequence_json(good, "t")
    # identity at level 1 violates the level-1 law wherever a bracket is nonzero
    bad_levels = [[[("1" if i == j else "0") for j in range(3)] for i in range(3)]
                  for _ in range(2)]
    doc["sequences"]["bad"] = {"on": "t", "kind": "lie-higher",
                               "levels": bad_levels}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_json(capsys, "verify", "--input", path,
                               "--sequence", "good")
    assert code == 0 and report["ok"] and report["kind"] == "higher"
    code, report, _ = run_json(capsys, "verify", "--input", path,
                               "--sequence", "bad")
    assert code == 1 and not report["ok"]
    assert report["violations"][0]["law"] == "lie-higher-identity"


def test_sequence_flag_conflicts(tmp_path, capsys):
    tri = load_catalog("tri_q_q_q")
    doc = triangular_document(tri, "t")
    doc["sequences"]["s"] = sequence_json(
        sample_sequence(tri.algebra, HIGHER, 1, 0), "t")
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, "verify", "--input", path, "--sequence", "s",
                         "--seed", "1")
    assert code == 2 and "excludes" in err
    code, out, err = run(capsys, "verify", "--input", path, "--sequence", "ghost")
    assert code == 2 and "unknown sequence" in err


def test_decompose_end_to_end(capsys):
    code, report, _ = run_json(capsys, "decompose", "--builtin",
                               "tri_qq_plane_qq", "--levels", "4", "--seed", "7")
    assert code == 0
    assert report["ok"] and report["properness"]["ok"]
    assert report["properness"]["violations"] == []
    assert len(report["delta"]) == 5 and len(report["chi"]) == 5
    assert set(report["components"]) == \
        {"diag_a", "cross_ab", "cross_ba", "diag_b", "mod", "offsets"}
    assert report["extension"]["extended_dim"] >= report["extension"]["base_dim"]


def test_decompose_rejects_triple_kind_sequences(tmp_path, capsys):
    tri = load_catalog("tri_q_q_q")
    doc = triangular_document(tri, "t")
    seq = sample_sequence(tri.algebra, LIE_TRIPLE_HIGHER, 2, 0)
    doc["sequences"]["s"] = sequence_json(seq, "t")
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, "decompose", "--input", path, "--sequence", "s")
    assert code == 2 and "accepts" in err


def test_decompose_accepts_stored_higher_sequences(tmp_path, capsys):
    tri = load_catalog("tri_t2_plane_q")
    doc = triangular_document(tri, "t")
    seq = sample_sequence(tri.algebra, HIGHER, 3, 2)
    doc["sequences"]["s"] = sequence_json(seq, "t")
    path = write_doc(tmp_path, doc)
    code, report, _ = run_json(capsys, "decompose", "--input", path,
                               "--sequence", "s")
    assert code == 0 and report["ok"]
    # a plain higher derivation decomposes with no central part at all
    flat = [x for mat in report["chi"] for row in mat for x in row]
    assert set(flat) == {"0"}


def test_probe_runs_and_exits_zero(capsys):
    code, report, _ = run_json(capsys, "probe", "--builtin", "tri_q_plane_qq",
                               "--levels", "3", "--seed", "4")
    assert code == 0
    assert report["experimental"] is True
    assert len(report["levels"]) == 4
    assert all(lv["status"] in {"found", "not-found", "skipped"}
               for lv in report["levels"])
    assert report["complete"] == all(lv["status"] == "found"
                                     for lv in report["levels"])


def test_probe_accepts_lie_higher_inputs(capsys):
    code, report, _ = run_json(capsys, "probe", "--builtin", "tri_q_q_q",
                               "--kind", "lie-higher", "--levels", "3")
    assert code == 0 and report["complete"] is True


def test_human_output_renders(capsys):
    code, out, err = run(capsys, "extend", "--builtin", "tri_q_q_q")
    assert code == 0
    assert "strict_a: false" in out and "command: \"extend\"" in out
