import gc
import random
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from artifact.formula import Atom, parse, parse_schema_text
from artifact import frame as frame_module, lanes, schema as schema_module
from artifact.frame import (CONDITIONS, PROPERTY_IDS, Frame, check_property, enumerate_frames,
                            frame_to_json, modal_tables, property_id, sample_frame)
from artifact.model import (_KM_POSTULATES, UnvaluedAtomError, compile_conjunctions,
                            denotation, make_model, truth_set)
from artifact.proofkit import builtin_scripts
from artifact.schema import (
    AGM_IDS,
    AXIOM_IDS,
    CORRESPONDENCE_PAIRS,
    CorrespondencePair,
    KM_IDS,
    L_CORE_IDS,
    LOGICS,
    REGISTRY,
    compile_schema_checker,
    rule_preserves_validity,
    run_correspondence_suite,
    schema_valid_on_frame,
)
from artifact.formula import instantiate, metavariable_names

GAPPY = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))
WITNESS = Frame(2, (3, 3), ((2, 2, 1), (2, 2, 2)))

SCHEMA_IDS = tuple(a for a in AXIOM_IDS if not REGISTRY[a].premises)
RULE_IDS = tuple(a for a in AXIOM_IDS if REGISTRY[a].premises)


def stride_frames(step=1103):
    return [fr for i, fr in enumerate(enumerate_frames(2)) if i % step == 0]


BASE_RULE_IDS = ("MP", "N_box", "N_cond", "RM_box", "RM_B", "RM_cond")


def test_registry_inventory():
    assert len(AXIOM_IDS) == 23
    assert set(L_CORE_IDS) <= set(SCHEMA_IDS)
    assert set(BASE_RULE_IDS) <= set(RULE_IDS)
    assert LOGICS["L"] == set(L_CORE_IDS) | set(BASE_RULE_IDS)
    assert LOGICS["KM"] == LOGICS["L"] | set(KM_IDS)
    assert LOGICS["AGM"] == LOGICS["L"] | set(AGM_IDS)
    assert len(KM_IDS) == 9
    assert len(AGM_IDS) == 9
    shared = set(KM_IDS) & set(AGM_IDS)
    assert shared == {
        "A_star_1_diamond_0", "A_star_2_diamond_1", "A_star_5b_diamond_3b",
        "A_star_7_diamond_5", "R_star_5a_diamond_3a", "R_star_6_diamond_4",
    }
    assert set(KM_IDS) - shared == {"A_diamond_2", "A_diamond_6w", "A_diamond_7s"}
    assert set(AGM_IDS) - shared == {"A_star_3", "A_star_4", "A_star_8_diamond_9s"}


def test_registry_holds_primitives_only():
    # a derived theorem or rule is stated by its proof script alone
    assert set(AXIOM_IDS) == set().union(*LOGICS.values())


def test_unknown_ids():
    with pytest.raises(ValueError, match="unknown axiom id"):
        schema_valid_on_frame(WITNESS, "A_star_9")


def test_counterexample_pins_first_failure():
    valid, cex = schema_valid_on_frame(GAPPY, "A_diamond_2")
    assert not valid
    binding, s = cex
    assert binding == {"PHI": 0b01, "PSI": 0b00}
    assert s == 0
    tpl = REGISTRY["A_diamond_2"].conclusion
    mask = denotation(GAPPY, tpl, binding)
    assert not mask >> s & 1


def test_l_core_and_every_l_script_valid_everywhere():
    """The base logic is sound on every frame: its core axioms are
    valid, and each builtin L script's target holds wherever its
    premises do, which covers the derived theorems and rules of L that
    only their scripts state."""
    scripts = [s for s in builtin_scripts() if s.logic == "L"]
    assert {"N_B", "RM_not_box_not", "RM_B_cond", "C_B_cond"} <= {s.id for s in scripts}
    rng = random.Random(13)
    for fr in stride_frames() + [sample_frame(3, rng) for _ in range(50)]:
        for a in L_CORE_IDS:
            valid, cex = schema_valid_on_frame(fr, a)
            assert valid, (a, fr, cex)
        for s in scripts:
            valid, cex = rule_preserves_validity(fr, s.premises, s.target)
            assert valid, (s.id, fr, cex)


def test_compiled_matches_generic_on_two_state_stride():
    frames = stride_frames(733)
    for a in SCHEMA_IDS:
        tpl = REGISTRY[a].conclusion
        for fr in frames:
            assert schema_valid_on_frame(fr, a) == rule_preserves_validity(fr, (), tpl)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), pick=st.integers(0, len(SCHEMA_IDS) - 1),
       n=st.integers(1, 4))
def test_compiled_matches_generic_on_sampled_three_state(seed, pick, n):
    fr = sample_frame(n, random.Random(seed))
    a = SCHEMA_IDS[pick]
    tpl = REGISTRY[a].conclusion
    assert schema_valid_on_frame(fr, a) == rule_preserves_validity(fr, (), tpl)


def _table_frames():
    rng = random.Random(8)
    return stride_frames(211) + [sample_frame(3, rng) for _ in range(200)]


def test_modal_tables_match_the_truth_clauses():
    believes, cond = parse_schema_text("B PHI"), parse_schema_text("(PHI > PSI)")
    for fr in _table_frames():
        bel, cnd = modal_tables(fr)
        events = range(fr.full + 1)
        assert bel == [denotation(fr, believes, {"PHI": x}) for x in events], fr
        assert cnd == [[denotation(fr, cond, {"PHI": e, "PSI": f}) for f in events]
                       for e in events], fr


def test_frames_build_their_tables_once_and_checkers_only_read_them(monkeypatch):
    """Every schema checker and every frame property run on one frame
    share the frame's one build of its modal tables (2**n inclusion rows:
    the belief row and one per non-empty event), leave them as a fresh
    build gives them, and find what they find on a fresh frame. The
    frame's update rows are U(s, E)."""
    builds = []
    build = frame_module._inclusion_row
    monkeypatch.setattr(frame_module, "_inclusion_row",
                        lambda events, full: builds.append(full) or build(events, full))
    checkers = [compile_schema_checker(REGISTRY[a].conclusion) for a in SCHEMA_IDS]
    for fr in _table_frames():
        builds.clear()
        verdicts = [check(fr) for check in checkers]
        properties = [check_property(fr, prop) for prop in PROPERTY_IDS]
        assert len(builds) == 1 << fr.n, fr
        fresh = Frame(fr.n, fr.belief, fr.selection)
        assert modal_tables(fr) == modal_tables(fresh), fr
        assert verdicts == [check(Frame(fr.n, fr.belief, fr.selection))
                            for check in checkers], fr
        assert properties == [check_property(fresh, prop) for prop in PROPERTY_IDS], fr
        for s in range(fr.n):
            assert fr.rows[s] == (0, *(fr.update(s, e) for e in range(1, fr.full + 1))), fr


def test_event_instantiation_matches_formula_semantics():
    # Plugging events into metavariables must agree with instantiating
    # the schema by fresh atoms valued at those events.
    rng = random.Random(11)
    two_state = list(enumerate_frames(2))
    for _ in range(100):
        a = rng.choice(SCHEMA_IDS)
        tpl = REGISTRY[a].conclusion
        fr = rng.choice(two_state) if rng.random() < 0.5 else sample_frame(3, rng)
        names = sorted(metavariable_names(tpl))
        binding = {nm: rng.randrange(fr.full + 1) for nm in names}
        atoms = {nm: f"mv_{nm.lower()}" for nm in names}
        m = make_model(fr, {atoms[nm]: binding[nm] for nm in names})
        inst = instantiate(tpl, {nm: Atom(atoms[nm]) for nm in names})
        assert truth_set(m, inst) == denotation(fr, tpl, binding)


def test_shared_rules_are_validity_preserving_everywhere():
    # every registered rule: the six base-logic rules and the two shared
    # by the update and revision logics; the derived rules of L are
    # checked with their scripts in test_l_core_and_every_l_script_valid_everywhere
    assert set(BASE_RULE_IDS) <= set(RULE_IDS)
    for fr in stride_frames():
        for r in RULE_IDS:
            info = REGISTRY[r]
            ok, cex = verdict = schema_valid_on_frame(fr, r)
            assert ok, (r, fr, cex)
            assert verdict == rule_preserves_validity(fr, info.premises, info.conclusion)
    rng = random.Random(3)
    for _ in range(50):
        fr = sample_frame(3, rng)
        for r in RULE_IDS:
            assert schema_valid_on_frame(fr, r)[0]


def test_modus_ponens_preserves_frame_validity():
    premises = [parse_schema_text("ALPHA"), parse_schema_text("ALPHA -> BETA")]
    conclusion = parse_schema_text("BETA")
    rng = random.Random(5)
    for fr in stride_frames(2903):
        assert rule_preserves_validity(fr, premises, conclusion)[0]
    for _ in range(40):
        assert rule_preserves_validity(sample_frame(3, rng), premises, conclusion)[0]


def test_correspondence_pairs_cover_expected_axioms():
    assert [p.axiom for p in CORRESPONDENCE_PAIRS] == [
        "A_star_1_diamond_0", "A_star_2_diamond_1", "A_diamond_2",
        "A_star_5b_diamond_3b", "A_star_7_diamond_5", "A_diamond_6w",
        "A_diamond_7s", "A_star_4",
    ]
    assert CORRESPONDENCE_PAIRS[0].property is None
    assert CORRESPONDENCE_PAIRS[-1].property == "P_star_4"


def test_conditions_table_is_keyed_by_the_items_that_read_it():
    assert set(CONDITIONS) <= set(REGISTRY)
    assert list(CONDITIONS) == [a for a in AXIOM_IDS if a in CONDITIONS]
    assert {item for item, _ in _KM_POSTULATES.values()} <= set(CONDITIONS)
    assert {p.axiom for p in CORRESPONDENCE_PAIRS} <= set(CONDITIONS)
    assert all(p.property == property_id(p.axiom) for p in CORRESPONDENCE_PAIRS)
    # an entry with a predicate adds a frame-check property, so a new one
    # has to be added here too
    assert PROPERTY_IDS == (
        "P_star_2_diamond_1", "P_diamond_2", "P_star_5b_diamond_3b", "P_star_7_diamond_5",
        "P_diamond_6w", "P_diamond_7s", "P_star_3", "P_star_4", "P_star_8_diamond_9s")


def test_conditions_without_a_predicate_hold_on_every_frame():
    rng = random.Random(17)
    frames = stride_frames(1103) + [sample_frame(3, rng) for _ in range(4)]
    free = [a for a, condition in CONDITIONS.items() if condition is None]
    assert free == ["A_star_1_diamond_0", "R_star_5a_diamond_3a", "R_star_6_diamond_4"]
    for a in free:  # the two rules through rule_preserves_validity
        for fr in frames:
            assert schema_valid_on_frame(fr, a) == (True, None), (a, fr)


@dataclass(frozen=True)
class CorrespondenceResult:
    property_holds: bool
    axiom_valid: bool

    @property
    def agree(self) -> bool:
        return self.property_holds == self.axiom_valid


def correspondence_check(fr: Frame, pair: CorrespondencePair) -> CorrespondenceResult:
    prop = True if pair.property is None else check_property(fr, pair.property)[0]
    valid, _ = schema_valid_on_frame(fr, pair.axiom)
    return CorrespondenceResult(prop, valid)


def test_correspondence_agrees_on_stride_and_samples():
    rng = random.Random(17)
    frames = stride_frames(419) + [sample_frame(3, rng) for _ in range(60)]
    for fr in frames:
        for p in CORRESPONDENCE_PAIRS:
            r = correspondence_check(fr, p)
            assert r.agree, (fr, p, r)


def test_witness_frame_separates_update_from_revision():
    assert schema_valid_on_frame(WITNESS, "A_diamond_2")[0]
    valid, cex = schema_valid_on_frame(WITNESS, "A_star_4")
    assert not valid
    assert check_property(WITNESS, "P_diamond_2")[0]
    assert not check_property(WITNESS, "P_star_4")[0]
    binding, s = cex
    assert binding == {"PHI": 0b01, "PSI": 0b01}


def test_agm_valid_frames_validate_km_items():
    # Semantic shadow of the derivations: any frame validating every
    # revision-logic item also validates every update-logic item.
    rng = random.Random(23)
    frames = stride_frames(97) + [sample_frame(3, rng) for _ in range(120)]
    agm_frames = 0
    for fr in frames:
        if all(schema_valid_on_frame(fr, a)[0] for a in AGM_IDS):
            agm_frames += 1
            for a in KM_IDS:
                assert schema_valid_on_frame(fr, a)[0], (a, fr)
    assert agm_frames > 0


def test_single_state_frames_do_not_crash():
    frames = list(enumerate_frames(1))
    assert len(frames) == 2
    for fr in frames:
        for p in CORRESPONDENCE_PAIRS:
            correspondence_check(fr, p)


def test_suite_exhaustive_refuses_large_n():
    with pytest.raises(ValueError, match="refusing"):
        run_correspondence_suite(3, mode="exhaustive")
    with pytest.raises(ValueError, match="unknown mode"):
        run_correspondence_suite(2, mode="all")


def test_suite_sampled_is_deterministic():
    a = run_correspondence_suite(3, mode="sampled", count=150, seed=42)
    b = run_correspondence_suite(3, mode="sampled", count=150, seed=42)
    assert a == b
    c = run_correspondence_suite(3, mode="sampled", count=150, seed=43)
    assert c["frames"] == 150
    assert a != c


def test_suite_exhaustive_single_state_report_shape():
    rep = run_correspondence_suite(1, mode="exhaustive")
    assert rep["frames"] == 2
    assert rep["disagreement_count"] == 0
    assert set(rep["pairs"]) == {p.axiom for p in CORRESPONDENCE_PAIRS}
    row = rep["pairs"]["A_star_1_diamond_0"]
    assert row["property_count"] == 2 and row["axiom_count"] == 2


def test_suite_counts_every_disagreement_past_the_witness_cap():
    # a deliberately mismatched pair, so the sides disagree on many frames
    pair = CorrespondencePair("A_star_4", "P_diamond_2")
    rep = run_correspondence_suite(2, mode="sampled", count=2000, seed=0, pairs=(pair,))
    rng = random.Random(0)
    frames = [sample_frame(2, rng) for _ in range(2000)]
    disagreeing = [fr for fr in frames
                   if check_property(fr, pair.property)[0]
                   != schema_valid_on_frame(fr, pair.axiom)[0]]
    assert len(disagreeing) == 296
    row = rep["pairs"][pair.axiom]
    assert row["disagreement_count"] == rep["disagreement_count"] == len(disagreeing)
    assert row["disagreements"] == [frame_to_json(fr) for fr in disagreeing[:25]]


def test_lane_tables_and_verdicts_match_each_frame():
    """One chunk per state count: its lane tables are the frames' modal
    tables side by side, each lane's frame reads back from them, and the
    lane verdicts of every axiom schema and every property are the
    per-frame ones."""
    frames = _table_frames()
    for n in (2, 3):
        group = [fr for fr in frames if fr.n == n]
        (chunk,) = lanes.lane_chunks(iter(group), n, PROPERTY_IDS)
        assert chunk.count == len(group)
        for lane, fr in enumerate(group):
            assert chunk.frame(lane) == fr
            bel, cnd = modal_tables(fr)
            for x in range(fr.full + 1):
                assert [chunk.bel[x][s] >> lane & 1 for s in range(n)] == \
                    [bel[x] >> s & 1 for s in range(n)], (fr, x)
                for e in range(fr.full + 1):
                    assert [chunk.cnd[e][x][s] >> lane & 1 for s in range(n)] == \
                        [cnd[e][x] >> s & 1 for s in range(n)], (fr, e, x)
        for a in SCHEMA_IDS:
            valid = compile_schema_checker(REGISTRY[a].conclusion, n)(
                chunk.bel, chunk.cnd, chunk.lanes)
            assert [valid >> lane & 1 for lane in range(len(group))] == \
                [schema_valid_on_frame(fr, a)[0] for fr in group], a
        for i, prop in enumerate(PROPERTY_IDS):
            holds = chunk.holds(i)
            assert [holds >> lane & 1 for lane in range(len(group))] == \
                [check_property(fr, prop)[0] for fr in group], prop


def test_lane_mode_refuses_a_modal_conditional_argument():
    for text in ("(B PHI > PSI) -> PHI", "B(PHI > (PSI > CHI))", "(PHI > []B PSI)"):
        template = parse_schema_text(text)
        compile_schema_checker(template)  # one frame at a time, it is fine
        with pytest.raises(ValueError, match="Boolean arguments of a conditional"):
            compile_schema_checker(template, 2)


def _per_frame_report(n, mode, frames, pairs, count=None, seed=None):
    """The correspondence report from one check per frame and pair, with
    the per-frame checker and ``check_property``: the reference the lane
    sweep is held to."""
    stats = {p.axiom: {"property": p.property, "property_count": 0, "axiom_count": 0,
                       "disagreement_count": 0, "disagreements": []} for p in pairs}
    witness, total = None, 0
    for fr in frames:
        total += 1
        valid_here = {}
        for p in pairs:
            prop = True if p.property is None else check_property(fr, p.property)[0]
            valid = valid_here[p.axiom] = schema_valid_on_frame(fr, p.axiom)[0]
            row = stats[p.axiom]
            row["property_count"] += prop
            row["axiom_count"] += valid
            if prop != valid:
                row["disagreement_count"] += 1
                if len(row["disagreements"]) < 25:
                    row["disagreements"].append(frame_to_json(fr))
        if (witness is None and valid_here.get("A_diamond_2")
                and valid_here.get("A_star_4") is False):
            witness = frame_to_json(fr)
    return {"states": n,
            "mode": mode if mode == "exhaustive" else {"sampled": {"count": count, "seed": seed}},
            "frames": total, "pairs": stats,
            "disagreement_count": sum(r["disagreement_count"] for r in stats.values()),
            "strictness_witness": witness}


MISMATCHED = (CorrespondencePair("A_star_4", "P_diamond_2"),
              CorrespondencePair("A_diamond_2", None),
              CorrespondencePair("A_diamond_7s", "P_star_7_diamond_5"))


@pytest.mark.parametrize("chunk_bytes,memo_cells", [(lanes._CHUNK_BYTES, lanes._MEMO_CELLS),
                                                    (1, 8)])
def test_lane_sweep_reports_what_a_per_frame_sweep_reports(monkeypatch, chunk_bytes,
                                                           memo_cells):
    # the second case packs 64 frames a chunk and memoizes a row or two, so
    # counts, witnesses and the disagreement cap cross chunk boundaries
    monkeypatch.setattr(lanes, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(lanes, "_MEMO_CELLS", memo_cells)
    assert run_correspondence_suite(1, "exhaustive") == _per_frame_report(
        1, "exhaustive", enumerate_frames(1), CORRESPONDENCE_PAIRS)
    assert run_correspondence_suite(3, "sampled", count=0) == _per_frame_report(
        3, "sampled", [], CORRESPONDENCE_PAIRS, 0, 0)
    for n, count, pairs in ((2, 300, MISMATCHED + CORRESPONDENCE_PAIRS[:2]),
                            (3, 200, CORRESPONDENCE_PAIRS + MISMATCHED[:1])):
        rng = random.Random(n)
        frames = [sample_frame(n, rng) for _ in range(count)]
        assert run_correspondence_suite(n, "sampled", count=count, seed=n, pairs=pairs) == \
            _per_frame_report(n, "sampled", frames, pairs, count, n)


def test_sweep_runs_each_predicate_once_per_distinct_row(monkeypatch):
    """At most once per distinct (belief, update row) pair, 192 at two
    states, and never more often than the per-frame checks run it."""
    calls = {}

    def counted(prop, condition):
        def run(r, b, full):
            calls[prop] = calls.get(prop, 0) + 1
            return condition(r, b, full)
        return run

    spies = {prop: counted(prop, c) for prop, c in lanes._PROPERTIES.items()}
    monkeypatch.setattr(lanes, "_PROPERTIES", spies)
    run_correspondence_suite(2, "exhaustive")
    assert set(calls) == set(PROPERTY_IDS) - {"P_star_3", "P_star_8_diamond_9s"}
    assert max(calls.values()) <= 192
    calls.clear()
    run_correspondence_suite(3, "sampled", count=300, seed=1)
    swept = dict(calls)
    calls.clear()
    monkeypatch.setattr(frame_module, "_PROPERTIES", spies)
    rng = random.Random(1)
    for _ in range(300):
        fr = sample_frame(3, rng)
        for p in CORRESPONDENCE_PAIRS[1:]:
            check_property(fr, p.property)
    assert all(swept[prop] <= calls[prop] for prop in calls), (swept, calls)


def test_lane_checkers_compile_on_the_first_sweep_only(monkeypatch):
    compiled = {}
    monkeypatch.setattr(schema_module, "_COMPILED", compiled)
    for a in SCHEMA_IDS:
        schema_valid_on_frame(GAPPY, a)
    assert set(compiled) == {(a, None) for a in SCHEMA_IDS}
    compiled.clear()
    run_correspondence_suite(2, "sampled", count=3)
    assert set(compiled) == {(p.axiom, 2) for p in CORRESPONDENCE_PAIRS}


def test_revision_items_match_their_conditions_on_every_two_state_frame():
    pairs = tuple(CorrespondencePair(a, property_id(a))
                  for a in ("A_star_3", "A_star_8_diamond_9s"))
    report = run_correspondence_suite(2, "exhaustive", pairs=pairs)
    assert report["frames"] == 36_864 and report["disagreement_count"] == 0
    assert {a: (row["property"], row["property_count"], row["axiom_count"])
            for a, row in report["pairs"].items()} == {
        "A_star_3": ("P_star_3", 6160, 6160),
        "A_star_8_diamond_9s": ("P_star_8_diamond_9s", 6255, 6255)}


def test_compile_rejects_concrete_atoms_and_empty_templates():
    from artifact.formula import Or

    with pytest.raises(ValueError, match="no metavariables"):
        compile_schema_checker(Atom("p"))
    with pytest.raises(ValueError, match="concrete atom"):
        compile_schema_checker(Or(Atom("p"), parse_schema_text("PHI")))
    # the reference evaluator's leaf checks on schema bindings
    with pytest.raises(UnvaluedAtomError):
        denotation(GAPPY, Or(Atom("p"), parse_schema_text("PHI")), {"PHI": 0b01})
    with pytest.raises(ValueError, match="event for PHI out of the frame's universe"):
        denotation(GAPPY, parse_schema_text("B PHI"), {"PHI": 0b100})


def test_compiled_functions_are_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        check = compile_schema_checker(REGISTRY["A_diamond_2"].conclusion)
        assert check(GAPPY) is not None
        ref = weakref.ref(check)
        del check
        assert ref() is None
        run = compile_conjunctions([[parse("B(p > q) | []p")]], {"p": 0b01, "q": 0b10}, 2)
        assert run(GAPPY) == (truth_set(make_model(GAPPY, {"p": 0b01, "q": 0b10}),
                                        parse("B(p > q) | []p")),)
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
