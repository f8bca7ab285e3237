"""End-to-end command line tests: exit codes, report formats, witness
round-trips."""

import functools
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from artifact import cli, model, schema
from artifact.cli import main
from artifact.frame import Frame, check_property, frame_from_json, frame_to_json, sample_frame
from artifact.model import make_model, model_to_json, truth_set
from artifact.formula import And, Atom, Not, parse, parse_schema_text
from artifact.worlds import family_from_json

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


def test_frame_check_rejects_non_list_index_fields(tmp_path, capsys):
    for doc in ({"states": 1, "belief": [[0]],
                 "selection": [{"s": 0, "event": 1, "value": [0]}]},
                {"states": 1, "belief": [0],
                 "selection": [{"s": 0, "event": [0], "value": [0]}]}):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        assert main(["frame-check", "--frame", str(path)]) == 2
        assert "expected a list of state indices" in capsys.readouterr().err


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


def test_check_km_bridge_refuses_large_models_up_front(tmp_path, monkeypatch, capsys):
    m = make_model(sample_frame(6, random.Random(0)), {"p": 0b000111, "q": 0b011011,
                                                       "r": 0b101101})
    path = tmp_path / "six.json"
    path.write_text(json.dumps(model_to_json(m)))

    def never(*args):
        raise AssertionError("the formula instances were built")

    monkeypatch.setattr(cli, "km_formula_instances", never)
    assert main(["check-km", "--model", str(path), "--state", "0", "--bridge"]) == 2
    err = capsys.readouterr().err
    assert "6 states" in err and "at most 5" in err
    # the event-level check alone is cheap at this size
    assert main(["check-km", "--model", str(path), "--state", "0"]) in (0, 1)
    capsys.readouterr()


def test_frame_check_and_check_km_refuse_large_frames_up_front(tmp_path, monkeypatch, capsys):
    n = 13
    events = tuple(range(1, 1 << n))
    identity = Frame(n, tuple(1 << s for s in range(n)), (events,) * n)
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(model_to_json(make_model(identity, {"p": 1}))))

    def never(*args):
        raise AssertionError("a predicate ran")

    def never_parsed(*args):
        raise AssertionError("the document was parsed")

    monkeypatch.setattr(cli, "check_property", never)
    monkeypatch.setattr(cli, "check_km_axiom", never)
    monkeypatch.setattr(cli, "frame_from_json", never_parsed)
    monkeypatch.setattr(cli, "model_from_json", never_parsed)
    for argv in (["frame-check", "--frame", str(path)],
                 ["check-km", "--model", str(path), "--state", "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "13 states" in err and "at most 12" in err
    twelve = {"states": 12}
    assert cli._checkable(twelve, "a frame") is twelve


def test_size_refusal_leaves_a_malformed_state_count_to_the_parser(tmp_path, capsys):
    path = tmp_path / "odd.json"
    for states in ("13", 13.0, True):
        path.write_text(json.dumps({"states": states, "belief": [], "selection": [],
                                    "valuation": {}}))
        for argv in (["frame-check", "--frame", str(path)],
                     ["check-km", "--model", str(path), "--state", "0"]):
            assert main(argv) == 2
            assert "states must be a positive integer" in capsys.readouterr().err


def test_deeply_nested_input_is_an_input_error(model_path, tmp_path, capsys):
    brackets = tmp_path / "brackets.json"
    brackets.write_text("[" * 100_000)
    script = tmp_path / "deep.proof"
    script.write_text("1. " + "(" * 150 + "PHI | ~PHI" + ")" * 150 + " ; taut\n")
    for argv, complaint in (
        (["eval", "--model", model_path, "--state", "0",
          "--formula", "(" * 200 + "p" + ")" * 200], "nested deeper than 64 levels"),
        (["truth-set", "--model", model_path, "--formula", " | ".join(["p"] * 5_000)],
         "nested deeper than 64 levels"),
        (["prove-check", str(script)], "line 1: formula nested deeper than 64 levels"),
        (["frame-check", "--frame", str(brackets)], "JSON nested too deeply"),
    ):
        assert main(argv) == 2
        assert complaint in capsys.readouterr().err
    # at the bound the formula is read and evaluated
    assert main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "(" * 64 + "p" + ")" * 64]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_long_iff_chain_is_refused_fast(model_path, capsys):
    # each <-> repeats both operands, so this expands to about 6e12 nodes
    start = time.perf_counter()
    assert main(["truth-set", "--model", model_path,
                 "--formula", " <-> ".join(["p"] * 40)]) == 2
    assert time.perf_counter() - start < 1
    assert "expands to more than 65,536 nodes" in capsys.readouterr().err


def test_input_files_past_the_byte_limit_are_refused_before_parsing(
        model_path, tmp_path, monkeypatch, capsys):
    script = tmp_path / "excluded_middle.proof"
    script.write_text("1. PHI | ~PHI ; taut\n")
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    eval_argv = ["eval", "--model", model_path, "--state", "0", "--formula", "B p"]
    runs = [(eval_argv, Path(model_path).stat().st_size),
            (["prove-check", str(script)], script.stat().st_size)]
    for argv, size in runs:
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size - 1)
        assert main(argv) == 2
        assert f"input limit of {size - 1:,} bytes" in capsys.readouterr().err
    assert parsed == []
    # at the limit each file is read whole
    for argv, size in runs:
        monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size)
        assert main(argv) == 0
    assert len(parsed) == 1


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
@pytest.mark.parametrize("argv", [
    ["eval", "--model", "/dev/zero", "--state", "0", "--formula", "p"],
    ["prove-check", "/dev/zero"],
])
def test_endless_input_is_refused_at_the_byte_limit(argv, capsys):
    assert main(argv) == 2
    assert "input limit of 33,554,432 bytes (32 MiB)" in capsys.readouterr().err


class _Reached(Exception):
    """Raised by a stand-in entry point: the command got past its checks."""


def _reached(*args, **kwargs):
    raise _Reached


def test_correspond_refuses_eight_states_up_front(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_correspondence_suite", _reached)
    assert main(["correspond", "--states", "8", "--sample", "1"]) == 2
    err = capsys.readouterr().err
    assert "--states 8" in err and "16,777,216 bindings" in err
    with pytest.raises(_Reached):
        main(["correspond", "--states", "7", "--sample", "1"])


def test_worlds_check_refuses_four_atoms_up_front(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_worlds_report", _reached)
    assert main(["worlds-check", "--atoms", "4", "--sample", "1"]) == 2
    err = capsys.readouterr().err
    assert "--atoms 4" in err and "65,535^3" in err
    with pytest.raises(_Reached):
        main(["worlds-check", "--atoms", "3", "--sample", "1"])


@pytest.mark.parametrize("argv", [
    ["correspond", "--states", "3", "--sample", "{}"],
    ["worlds-check", "--atoms", "2", "--sample", "{}"],
    ["correspond", "--states", "{}", "--sample", "3"],
    ["frame-enum", "--states", "{}", "--count-only"],
])
def test_counts_below_one_are_refused_up_front(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_correspondence_suite", _reached)
    monkeypatch.setattr(cli, "run_worlds_report", _reached)
    monkeypatch.setattr(cli, "frame_count", _reached)
    flag = argv[argv.index("{}") - 1]
    for value in ("0", "-3"):
        assert main([value if a == "{}" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: refusing {value}" in err
    with pytest.raises(_Reached):
        main(["1" if a == "{}" else a for a in argv])


# -- the event/formula bridge on a few frames ----------------------------------

# success holds at both states of TAME and LOPSIDED and fails at both of
# SKEWED, which selects {1} for every event
SKEWED = Frame(2, (1, 1), ((2, 2, 2), (2, 2, 2)))
BRIDGE_FRAMES = (TAME, LOPSIDED, SKEWED)


def _bridge(monkeypatch, frames=BRIDGE_FRAMES):
    """criterion_formula_bridge on ``frames`` instead of all two-state frames."""
    monkeypatch.setattr(cli, "enumerate_frames", lambda n: iter(frames))
    return cli.criterion_formula_bridge()


def _record(fr, axiom, state):
    return {"frame": frame_to_json(fr), "axiom": axiom, "state": state}


def test_bridge_compiles_one_function_per_valuation_on_every_call(monkeypatch):
    sources = []
    monkeypatch.setattr(model, "exec", lambda src, ns: (sources.append(src), exec(src, ns)),
                        raising=False)
    for calls in (1, 2):
        report = _bridge(monkeypatch)
        assert len(sources) == 2 * calls
        assert report == {"ok": True, "checked": 3 * 9 * 2 * 2, "spot_checks": 9,
                          "disagreements": []}


def test_models_are_built_only_where_a_valuation_is_read(monkeypatch):
    made = []
    real = cli.make_model

    def counted(fr, valuation):
        made.append(fr)
        return real(fr, valuation)

    monkeypatch.setattr(cli, "make_model", counted)
    frames = list(itertools.islice(cli.enumerate_frames(2), 1_100))
    report = _bridge(monkeypatch, frames)
    # the spot checks run on every 1,024th frame, and only they need a model
    assert report["ok"] and report["spot_checks"] == 2 * 9
    assert made == [frames[0], frames[1_024]]
    made.clear()
    assert cli.criterion_foundations(0)["ok"]
    assert made == []


def test_bridge_reports_a_flipped_event_level_verdict(monkeypatch):
    real = cli.check_km_axiom

    def flipped(fr, s, a):
        holds, cex = real(fr, s, a)
        if (fr, a, s) == (LOPSIDED, "K_diamond_5", 1):
            return not holds, cex
        return holds, cex

    monkeypatch.setattr(cli, "check_km_axiom", flipped)
    report = _bridge(monkeypatch)
    # one record per separating valuation
    assert report["disagreements"] == [_record(LOPSIDED, "K_diamond_5", 1)] * 2
    assert report["checked"] == 3 * 9 * 2 * 2 and report["spot_checks"] == 9
    assert report["ok"] is False


def test_bridge_reports_a_false_formula_instance(monkeypatch):
    real = cli.km_formula_instances

    def swapped(n, valuation):
        table = real(n, valuation)
        if valuation == {"p": 0b10}:
            # B(k{1} > k{1}) becomes a contradiction
            table["K_diamond_1"][1] = And(Atom("p"), Not(Atom("p")))
        return table

    monkeypatch.setattr(cli, "km_formula_instances", swapped)
    report = _bridge(monkeypatch)
    # the second valuation's K_diamond_1 now fails everywhere, so only the
    # states where success holds disagree
    assert report["disagreements"] == [
        _record(TAME, "K_diamond_1", 0), _record(TAME, "K_diamond_1", 1),
        _record(LOPSIDED, "K_diamond_1", 0), _record(LOPSIDED, "K_diamond_1", 1)]
    assert report["checked"] == 3 * 9 * 2 * 2 and report["spot_checks"] == 9
    assert report["ok"] is False


def test_bridge_instantiates_the_registry_items(monkeypatch):
    # A_diamond_2 with its conditional reversed is not valid: the bridge
    # must see it through the K_diamond_2 instances
    reversed_cond = parse_schema_text("B PHI -> (B PSI <-> B(PSI > PHI))")
    monkeypatch.setitem(schema.REGISTRY, "A_diamond_2",
                        schema.AxiomInfo("A_diamond_2", (), reversed_cond))
    report = _bridge(monkeypatch)
    spot = {**_record(TAME, "K_diamond_2", 0), "path": "check_km_axiom_via_formulas"}
    assert report["disagreements"] == (
        [_record(TAME, "K_diamond_2", 0)] * 2 + [_record(TAME, "K_diamond_2", 1)] * 2
        + [spot] + [_record(LOPSIDED, "K_diamond_2", 1)] * 2)
    assert report["ok"] is False


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
    family = conj["first_violation"]["family"]  # a frame document
    assert family["states"] == 2 and family["belief"] == [[0], [1]]
    assert family_from_json(family).n == 2


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


def test_prove_check_over_the_tautology_budget_is_a_failed_line(tmp_path, capsys):
    wide = tmp_path / "wide.proof"
    wide.write_text(f"1. {' | '.join(f'p{i}' for i in range(21))} | ~p0 ; taut\n")
    assert main(["prove-check", str(wide)]) == 1
    captured = capsys.readouterr()
    assert "wide: line 1: 21 opaque atoms exceed the bound of 20" in captured.out
    assert "Traceback" not in captured.err


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


def test_verify_containment_exclusion_covers_rules(capsys):
    code = main(["verify-containment", "--exclude", "R_star_6_diamond_4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "R_star_6_diamond_4: shared; FAILED (R_star_6_diamond_4 is excluded)" in out
    for a in ("A_diamond_6w", "A_diamond_7s"):
        line = next(ln for ln in out.splitlines() if ln.startswith(f"{a}:"))
        assert "FAILED" in line and "rule R_star_6_diamond_4 is not available" in line


def test_verify_containment_rejects_unknown_exclusions(capsys):
    assert main(["verify-containment", "--exclude", "A_star_44"]) == 2
    captured = capsys.readouterr()
    assert "A_star_44" in captured.err and captured.out == ""


def test_verify_containment_refuses_derived_exclusions(capsys):
    assert main(["verify-containment", "--exclude", "RM_B_cond"]) == 2
    captured = capsys.readouterr()
    assert "RM_B_cond" in captured.err and captured.out == ""


def test_out_flag_writes_file(model_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["eval", "--model", model_path, "--state", "0",
                 "--formula", "B p", "--out", str(out), "--format", "json"])
    assert code == 0
    assert json.loads(out.read_text())["holds"] is True
    assert capsys.readouterr().out == ""
