import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from artifact.formula import Atom, parse, parse_schema_text
from artifact.frame import Frame, check_property, enumerate_frames, frame_to_json, sample_frame
from artifact.model import UnvaluedAtomError, compile_truth, denotation, make_model, truth_set
from artifact.schema import (
    AGM_IDS,
    AXIOM_IDS,
    CORRESPONDENCE_PAIRS,
    CorrespondencePair,
    KM_IDS,
    L_CORE_IDS,
    REGISTRY,
    compile_schema_checker,
    correspondence_check,
    rule_preserves_validity,
    rule_valid_on_frame,
    run_correspondence_suite,
    schema_valid_on_frame,
    schema_valid_on_frame_generic,
)
from artifact.formula import instantiate

GAPPY = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))
WITNESS = Frame(2, (3, 3), ((2, 2, 1), (2, 2, 2)))

SCHEMA_IDS = tuple(a for a in AXIOM_IDS if REGISTRY[a].schema is not None)
RULE_IDS = tuple(a for a in AXIOM_IDS if REGISTRY[a].rule is not None)


def stride_frames(step=1103):
    return [fr for i, fr in enumerate(enumerate_frames(2)) if i % step == 0]


def test_registry_inventory():
    assert len(AXIOM_IDS) == 23
    assert set(L_CORE_IDS) <= set(SCHEMA_IDS)
    assert len(KM_IDS) == 9
    assert len(AGM_IDS) == 9
    shared = set(KM_IDS) & set(AGM_IDS)
    assert shared == {
        "A_star_1_diamond_0", "A_star_2_diamond_1", "A_star_5b_diamond_3b",
        "A_star_7_diamond_5", "R_star_5a_diamond_3a", "R_star_6_diamond_4",
    }
    assert set(KM_IDS) - shared == {"A_diamond_2", "A_diamond_6w", "A_diamond_7s"}
    assert set(AGM_IDS) - shared == {"A_star_3", "A_star_4", "A_star_8_diamond_9s"}
    assert REGISTRY["A_star_1_diamond_0"].theorem_of_l
    assert not REGISTRY["A_star_2_diamond_1"].theorem_of_l
    for a in ("C_not_box_not", "C_B_inv", "K_cond", "RM_not_box_not", "N_B", "RM_B_cond"):
        assert REGISTRY[a].theorem_of_l


def test_unknown_and_misclassified_ids():
    fr = WITNESS
    with pytest.raises(ValueError, match="unknown axiom id"):
        schema_valid_on_frame(fr, "A_star_9")
    with pytest.raises(ValueError, match="rule of inference"):
        schema_valid_on_frame(fr, "R_star_6_diamond_4")
    with pytest.raises(ValueError, match="formula schema"):
        rule_valid_on_frame(fr, "A_star_4")


def test_counterexample_pins_first_failure():
    valid, cex = schema_valid_on_frame(GAPPY, "A_diamond_2")
    assert not valid
    binding, s = cex
    assert binding == {"PHI": 0b01, "PSI": 0b00}
    assert s == 0
    tpl = REGISTRY["A_diamond_2"].schema.template
    mask = denotation(GAPPY, tpl, binding)
    assert not mask >> s & 1


def test_theorems_of_l_valid_everywhere_on_stride():
    always = [a for a in SCHEMA_IDS
              if REGISTRY[a].theorem_of_l or a in L_CORE_IDS]
    for fr in stride_frames():
        for a in always:
            valid, cex = schema_valid_on_frame(fr, a)
            assert valid, (a, fr, cex)


def test_compiled_matches_generic_on_two_state_stride():
    frames = stride_frames(733)
    for a in SCHEMA_IDS:
        tpl = REGISTRY[a].schema.template
        for fr in frames:
            assert schema_valid_on_frame(fr, a) == schema_valid_on_frame_generic(fr, tpl)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), pick=st.integers(0, len(SCHEMA_IDS) - 1))
def test_compiled_matches_generic_on_sampled_three_state(seed, pick):
    fr = sample_frame(3, random.Random(seed))
    a = SCHEMA_IDS[pick]
    tpl = REGISTRY[a].schema.template
    assert schema_valid_on_frame(fr, a) == schema_valid_on_frame_generic(fr, tpl)


def test_event_instantiation_matches_formula_semantics():
    # Plugging events into metavariables must agree with instantiating
    # the schema by fresh atoms valued at those events.
    rng = random.Random(11)
    two_state = list(enumerate_frames(2))
    for _ in range(100):
        a = rng.choice(SCHEMA_IDS)
        sch = REGISTRY[a].schema
        fr = rng.choice(two_state) if rng.random() < 0.5 else sample_frame(3, rng)
        names = sorted(sch.metavariables())
        binding = {nm: rng.randrange(fr.full + 1) for nm in names}
        atoms = {nm: f"mv_{nm.lower()}" for nm in names}
        m = make_model(fr, {atoms[nm]: binding[nm] for nm in names})
        inst = instantiate(sch, {nm: Atom(atoms[nm]) for nm in names})
        assert truth_set(m, inst) == denotation(fr, sch.template, binding)


def test_shared_rules_are_validity_preserving_everywhere():
    for fr in stride_frames():
        for r in RULE_IDS:
            ok, cex = rule_valid_on_frame(fr, r)
            assert ok, (r, fr, cex)
    rng = random.Random(3)
    for _ in range(50):
        fr = sample_frame(3, rng)
        for r in RULE_IDS:
            assert rule_valid_on_frame(fr, r)[0]


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
        def item_ok(a):
            info = REGISTRY[a]
            if info.schema is not None:
                return schema_valid_on_frame(fr, a)[0]
            return rule_valid_on_frame(fr, a)[0]
        if all(item_ok(a) for a in AGM_IDS):
            agm_frames += 1
            for a in KM_IDS:
                assert item_ok(a), (a, fr)
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
        check = compile_schema_checker(REGISTRY["A_diamond_2"].schema.template)
        assert check(GAPPY) is not None
        ref = weakref.ref(check)
        del check
        assert ref() is None
        run = compile_truth(parse("B(p > q) | []p"), {"p": 0b01, "q": 0b10}, 2)
        assert run(GAPPY) == truth_set(make_model(GAPPY, {"p": 0b01, "q": 0b10}),
                                       parse("B(p > q) | []p"))
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
