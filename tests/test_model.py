"""Models: truth clauses, belief change, postulate checks, bridges."""

from __future__ import annotations

import itertools
import random

import pytest

from artifact.formula import And, Atom, Believes, Box, Cond, Implies, Not, Or, parse
from artifact.frame import Frame, FrameFormatError, check_property, enumerate_frames, sample_frame
from artifact.model import (
    KM_AXIOM_IDS,
    NonSeparatingValuationError,
    UnvaluedAtomError,
    belief_state,
    characteristic_formula,
    check_km_axiom,
    check_km_axiom_via_formulas,
    compile_truth,
    denotation,
    holds_at,
    km_formula_instances,
    make_model,
    model_from_json,
    model_to_json,
    truth_set,
    update_event,
)

# Both states believe {0,1}; conditioning on {0,1} picks out the actual
# state, conditioning on a singleton returns it unchanged.
POINTED = Frame(2, (3, 3), ((1, 2, 1), (1, 2, 2)))
M = make_model(POINTED, {"p": 0b11, "q": 0b01})

# B(0)={0} and f(0,{0}) is empty.
GAPPY = Frame(2, (1, 3), ((0, 2, 1), (1, 0, 3)))


def _random_formula(rng: random.Random, depth: int, atoms=("p", "q")):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(7)
    a = _random_formula(rng, depth - 1, atoms)
    if pick == 0:
        return Not(a)
    if pick == 1:
        return Believes(a)
    if pick == 2:
        return Box(a)
    b = _random_formula(rng, depth - 1, atoms)
    if pick == 3:
        return Or(a, b)
    if pick == 4:
        return And(a, b)
    if pick == 5:
        return Implies(a, b)
    return Cond(a, b)


# -- truth clauses -----------------------------------------------------------

def test_truth_set_examples():
    assert truth_set(M, parse("q | ~q")) == 0b11
    assert truth_set(M, parse("(p > q)")) == 0b01
    assert truth_set(M, parse("[]p")) == 0b11
    assert truth_set(M, parse("[]q")) == 0
    assert truth_set(M, parse("B p")) == 0b11
    assert truth_set(M, parse("B q")) == 0
    assert holds_at(M, 0, parse("B p"))
    assert not holds_at(M, 1, parse("(p > q)"))


def test_vacuous_conditional():
    rng = random.Random(3)
    contradiction = parse("q & ~q")
    assert truth_set(M, contradiction) == 0
    for _ in range(100):
        beta = _random_formula(rng, 3)
        assert truth_set(M, Cond(contradiction, beta)) == 0b11


def test_conditional_uses_per_state_selection():
    # f(0,{0,1})={0} but f(1,{0,1})={1}: the conditional's truth varies by state
    assert truth_set(M, parse("(p > q)")) == 0b01
    assert truth_set(M, parse("(p > ~q)")) == 0b10


def test_boolean_homomorphism():
    rng = random.Random(4)
    full = M.frame.full
    for _ in range(1000):
        f = _random_formula(rng, 3)
        g = _random_formula(rng, 2)
        assert truth_set(M, Not(f)) == full & ~truth_set(M, f)
        assert truth_set(M, Or(f, g)) == truth_set(M, f) | truth_set(M, g)
        assert truth_set(M, And(f, g)) == truth_set(M, f) & truth_set(M, g)


def test_unvalued_atom():
    with pytest.raises(UnvaluedAtomError):
        truth_set(M, parse("r | p"))


def test_metavariable_rejected():
    from artifact.formula import mv
    with pytest.raises(ValueError, match="metavariable"):
        truth_set(M, Believes(mv("PHI")))
    # a schema binding that leaves a metavariable unbound
    with pytest.raises(ValueError, match="metavariable PSI"):
        denotation(POINTED, Cond(mv("PHI"), mv("PSI")), {"PHI": 0b01})


# -- belief change -----------------------------------------------------------

def test_update_event_examples():
    assert update_event(M, 0, 0b11) == 0b11      # union of {0} and {1}
    assert update_event(M, 0, 0b01) == 0b01
    empty_sel = Frame(2, (3, 3), ((0, 0, 0), (0, 0, 0)))
    m2 = make_model(empty_sel, {"p": 0b01})
    assert update_event(m2, 0, 0b11) == 0
    with pytest.raises(ValueError, match="empty event"):
        update_event(M, 0, 0)


def test_update_event_stays_in_universe():
    rng = random.Random(6)
    for _ in range(50):
        fr = sample_frame(3, rng)
        m = make_model(fr, {"p": 0b001})
        for s in range(3):
            for e in range(1, 8):
                assert update_event(m, s, e) & ~fr.full == 0


def test_membership_is_subset_test():
    # psi in the changed set at s iff update_event is inside den(psi)
    e_phi = truth_set(M, parse("p"))
    e_psi = truth_set(M, parse("q"))
    changed = update_event(M, 0, e_phi)
    assert (changed & ~e_psi == 0) == holds_at(M, 0, parse("B(p > q)"))


def test_belief_state_consistent():
    st = belief_state(M, 1)
    assert st.belief_event == 0b11
    assert st.belief_event != 0


# -- event-level postulate checks --------------------------------------------

def test_check_km_axiom_examples():
    assert check_km_axiom(M, 0, "K_diamond_1") == (True, None)
    gap = make_model(GAPPY, {"p": 0b01})
    assert check_km_axiom(gap, 0, "K_diamond_2") == (False, (0b01,))
    assert check_km_axiom(gap, 0, "K_diamond_3b") == (False, (0b01,))
    for a in ("K_diamond_0", "K_diamond_3a", "K_diamond_4"):
        assert check_km_axiom(gap, 0, a) == (True, None)
    with pytest.raises(ValueError, match="unknown update postulate"):
        check_km_axiom(M, 0, "K_diamond_9")


_PAIRED = {
    "K_diamond_1": "P_star_2_diamond_1",
    "K_diamond_2": "P_diamond_2",
    "K_diamond_3b": "P_star_5b_diamond_3b",
    "K_diamond_5": "P_star_7_diamond_5",
    "K_diamond_6w": "P_diamond_6w",
    "K_diamond_7s": "P_diamond_7s",
}


def test_km_checks_match_frame_properties():
    frames = list(itertools.islice(enumerate_frames(2), 0, 36864, 431))
    rng = random.Random(8)
    frames += [sample_frame(3, rng) for _ in range(60)]
    for fr in frames:
        m = make_model(fr, {"p": 1})
        for axiom, prop in _PAIRED.items():
            reports = [(s, check_km_axiom(m, s, axiom)) for s in range(fr.n)]
            first = next(((s, *cex) for s, (holds, cex) in reports if not holds), None)
            assert check_property(fr, prop) == (first is None, first), (fr, axiom)


# -- characteristic formulas -------------------------------------------------

def test_characteristic_formula_shapes():
    m = make_model(POINTED, {"p": 0b01})
    assert characteristic_formula(m, 0b10) == Not(Atom("p"))
    assert characteristic_formula(m, 0b01) == Atom("p")
    assert truth_set(m, characteristic_formula(m, 0b11)) == 0b11
    assert truth_set(m, characteristic_formula(m, 0)) == 0


def test_characteristic_formula_covers_all_events():
    rng = random.Random(12)
    for _ in range(20):
        fr = sample_frame(3, rng)
        m = make_model(fr, {"p": 0b011, "q": 0b101})
        for e in range(8):
            assert truth_set(m, characteristic_formula(m, e)) == e


def test_characteristic_formula_needs_separation():
    m = make_model(POINTED, {"p": 0b11})
    with pytest.raises(NonSeparatingValuationError):
        characteristic_formula(m, 0b01)
    bare = make_model(POINTED, {})
    with pytest.raises(NonSeparatingValuationError):
        characteristic_formula(bare, 0b01)
    with pytest.raises(ValueError, match="universe"):
        characteristic_formula(make_model(POINTED, {"p": 1}), 0b100)


# -- the two layers agree ----------------------------------------------------

def test_formula_twin_agrees_on_sampled_frames():
    for val in ({"p": 0b01}, {"p": 0b10}):
        instances = km_formula_instances(2, val)
        for fr in itertools.islice(enumerate_frames(2), 0, 36864, 601):
            m = make_model(fr, val)
            for a in KM_AXIOM_IDS:
                for s in range(2):
                    assert check_km_axiom(m, s, a)[0] == \
                        check_km_axiom_via_formulas(m, s, a, instances), (fr, a, s)


def test_formula_twin_default_instances():
    m = make_model(GAPPY, {"p": 0b01})
    assert not check_km_axiom_via_formulas(m, 0, "K_diamond_2")
    assert check_km_axiom_via_formulas(m, 0, "K_diamond_3a")


# -- compiled evaluator ------------------------------------------------------

def test_compile_truth_matches_truth_set():
    rng = random.Random(21)
    val = {"p": 0b011, "q": 0b101}
    frames = [sample_frame(3, rng) for _ in range(40)]
    for _ in range(60):
        f = _random_formula(rng, 4)
        run = compile_truth(f, val, 3)
        for fr in frames:
            assert run(fr) == truth_set(make_model(fr, val), f)


def test_compile_truth_errors():
    with pytest.raises(UnvaluedAtomError):
        compile_truth(parse("r"), {"p": 1}, 2)
    from artifact.formula import mv
    with pytest.raises(ValueError, match="metavariable"):
        compile_truth(Believes(mv("ALPHA")), {"p": 1}, 2)
    with pytest.raises(ValueError, match="universe"):
        compile_truth(parse("p"), {"p": 0b100}, 2)


# -- serialization -----------------------------------------------------------

def test_model_json_roundtrip():
    doc = model_to_json(M)
    assert doc["valuation"] == {"p": [0, 1], "q": [0]}
    assert model_from_json(doc) == M


def test_model_json_rejects_malformed():
    doc = model_to_json(M)
    del doc["valuation"]
    with pytest.raises(FrameFormatError, match="valuation"):
        model_from_json(doc)
    doc = model_to_json(M)
    doc["valuation"]["Q"] = [0]
    with pytest.raises(FrameFormatError, match="atom name"):
        model_from_json(doc)
    doc = model_to_json(M)
    doc["valuation"]["p"] = [5]
    with pytest.raises(FrameFormatError, match="out of range"):
        model_from_json(doc)


def test_make_model_validation():
    with pytest.raises(ValueError, match="universe"):
        make_model(POINTED, {"p": 0b111})
    with pytest.raises(ValueError, match="atom name"):
        make_model(POINTED, {"P": 1})
