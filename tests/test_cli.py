"""End-to-end command line tests: exit codes, report formats, witness
round-trips."""

import functools
import json

import pytest

from artifact import cli, schema
from artifact.cli import main
from artifact.frame import Frame, check_property, frame_from_json, frame_to_json
from artifact.model import make_model, model_to_json, truth_set
from artifact.formula import parse

# serial two-state frame that fails most selection properties
LOPSIDED = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))
# constant-belief frame satisfying all of them: pick the believed state
# when the event allows it, otherwise the event's lowest state
TAME = Frame(2, (1, 1), ((1, 2, 1), (1, 2, 1)))


@pytest.fixture
def model_path(tmp_path):
    m = make_model(LOPSIDED, {"p": 0b01, "q": 0b10})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_json(m)))
    return str(path)


@pytest.fixture
def frame_path(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(frame_to_json(LOPSIDED)))
    return str(path)


def test_eval_true_exit_zero(model_path, capsys):
    code = main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "B p"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_false_exit_one(model_path, capsys):
    code = main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "B q"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_matches_library(model_path, capsys):
    m = make_model(LOPSIDED, {"p": 0b01, "q": 0b10})
    f = parse("B(p > q)")
    code = main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "B(p > q)", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] == bool(truth_set(m, f) & 1) == (code == 0)


def test_eval_usage_errors(model_path, capsys):
    assert main(["eval", "--model", "/nonexistent.json", "--state", "0",
                 "--formula", "p"]) == 2
    assert main(["eval", "--model", model_path, "--state", "9",
                 "--formula", "p"]) == 2
    assert main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "p |"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()


def test_internal_key_error_is_not_a_usage_error(frame_path, monkeypatch, capsys):
    # input documents report missing keys as ValueError subclasses, so a
    # KeyError is an internal fault and must surface with its traceback
    def broken(doc):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "frame_from_json", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["frame-check", "--frame", frame_path])
    assert capsys.readouterr().err == ""


def test_truth_set_reports_states(model_path, capsys):
    code = main(["truth-set", "--model", model_path, "--formula", "~q",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mask"] == 0b01 and doc["states"] == [0]


def test_frame_check_witness_round_trip(frame_path, capsys):
    """An emitted counterexample must reproduce the failure when loaded
    back and re-checked."""
    code = main(["frame-check", "--frame", frame_path, "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    reloaded = frame_from_json(doc["frame"])
    assert reloaded == LOPSIDED
    for prop, row in doc["properties"].items():
        holds, witness = check_property(reloaded, prop)
        assert holds == row["holds"]
        if not holds:
            expected = dict(zip(("s", "E", "F"), witness))
            assert row["witness"] == expected


def test_frame_check_single_property(frame_path, capsys):
    code = main(["frame-check", "--frame", frame_path,
                 "--property", "P_star_2_diamond_1"])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_frame_check_all_pass(tmp_path, capsys):
    path = tmp_path / "tame.json"
    path.write_text(json.dumps(frame_to_json(TAME)))
    assert main(["frame-check", "--frame", str(path)]) == 0
    capsys.readouterr()


def test_frame_enum_count(capsys):
    assert main(["frame-enum", "--states", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "36864"


def test_frame_enum_emits_loadable_frames(tmp_path):
    out = tmp_path / "frames.jsonl"
    assert main(["frame-enum", "--states", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert frame_from_json(json.loads(line)).n == 1


def test_frame_enum_refuses_three_states(capsys):
    assert main(["frame-enum", "--states", "3"]) == 2
    capsys.readouterr()


def test_check_km_with_bridge(model_path, capsys):
    code = main(["check-km", "--model", model_path, "--state", "0",
                 "--bridge", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["axioms"]) == {
        "K_diamond_0", "K_diamond_1", "K_diamond_2", "K_diamond_3a",
        "K_diamond_3b", "K_diamond_4", "K_diamond_5", "K_diamond_6w",
        "K_diamond_7s"}
    for row in doc["axioms"].values():
        assert row["agrees"]
    failed = [a for a, row in doc["axioms"].items() if not row["holds"]]
    assert (code == 0) == (not failed)


def test_correspond_sampled_two_states(capsys):
    code = main(["correspond", "--states", "2", "--sample", "200",
                 "--seed", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frames"] == 200
    assert doc["disagreement_count"] == 0


def test_correspond_text_prints_exact_pair_counts(capsys, monkeypatch):
    pair = schema.CorrespondencePair("A_star_4", "P_diamond_2")
    monkeypatch.setattr(cli, "run_correspondence_suite",
                        functools.partial(schema.run_correspondence_suite, pairs=(pair,)))
    assert main(["correspond", "--states", "2", "--sample", "2000", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "A_star_4 vs P_diamond_2: axiom" in out and "disagreements 296" in out
    assert "total disagreements: 296" in out


def test_correspond_exhaustive_three_states_refused(capsys):
    assert main(["correspond", "--states", "3", "--exhaustive"]) == 2
    capsys.readouterr()


def test_correspond_deterministic_for_fixed_seed(capsys):
    argv = ["correspond", "--states", "3", "--sample", "50", "--seed", "11",
            "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_worlds_check_one_atom_exhaustive(capsys):
    code = main(["worlds-check", "--atoms", "1", "--exhaustive",
                 "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["families"] == 4096
    union = doc["lemmas"]["K_diamond_7s_lifted"]
    conj = doc["lemmas"]["K_diamond_9s_lifted"]
    assert union["hypothesis_families"] == 2401 and union["violations"] == 0
    assert conj["hypothesis_families"] == 625 and conj["violations"] == 264
    assert conj["first_violation"]["family"]["worlds"] == 1


def test_worlds_check_union_constraint_clean(capsys):
    code = main(["worlds-check", "--atoms", "2", "--sample", "60",
                 "--constraint", "k7", "--lemma", "k7s", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["lemmas"]) == ["K_diamond_7s_lifted"]
    row = doc["lemmas"]["K_diamond_7s_lifted"]
    assert row["hypothesis_families"] > 0 and row["violations"] == 0


def test_prove_check_builtin(capsys):
    assert main(["prove-check", "builtin:A_diamond_2", "--logic", "AGM"]) == 0
    out = capsys.readouterr().out
    assert "19 lines" in out


def test_prove_check_builtin_errors(capsys):
    assert main(["prove-check", "builtin:A_diamond_2", "--logic", "KM"]) == 2
    assert main(["prove-check", "builtin:no_such_script"]) == 2
    capsys.readouterr()


def test_prove_check_file(tmp_path, capsys):
    good = tmp_path / "double_negation_intro.proof"
    good.write_text("1. B ALPHA -> B ALPHA ; taut\n")
    assert main(["prove-check", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.proof"
    bad.write_text("1. B ALPHA ; taut\n")
    assert main(["prove-check", str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["line"] == 1 and "tautology" in doc["reason"]

    malformed = tmp_path / "mangled.proof"
    malformed.write_text("first line is not a step\n")
    assert main(["prove-check", str(malformed)]) == 2
    capsys.readouterr()


def test_verify_containment_cli(capsys):
    assert main(["verify-containment"]) == 0
    out = capsys.readouterr().out
    assert "derived, 19 lines" in out and "covered 9 items" in out


def test_verify_containment_exclusion(capsys):
    code = main(["verify-containment", "--exclude", "A_star_4",
                 "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["items"]["A_diamond_2"]["ok"]
    assert "line 5" in doc["items"]["A_diamond_2"]["reason"]


def test_out_flag_writes_file(model_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "B p", "--out", str(out), "--format", "json"])
    assert code == 0
    assert json.loads(out.read_text())["holds"] is True
    assert capsys.readouterr().out == ""
